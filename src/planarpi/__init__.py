"""Exact rational snapshots of pathological planar co-c.e. continua."""

__version__ = "0.1.0"


def check_natural(value, what: str) -> int:
    """The one rule for naturals read from input: an int >= 0, never a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a natural number, got {value!r}")
    return value
