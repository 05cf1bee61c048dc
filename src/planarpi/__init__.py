"""Exact rational snapshots of pathological planar co-c.e. continua."""

__version__ = "0.1.0"


def check_natural(value, what: str) -> int:
    """The one rule for naturals read from input: an int >= 0, never a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a natural number, got {value!r}")
    return value


def check_rows(rows, what: str, width: int) -> list:
    """The one rule for lists of pairs or triples read from input: a list
    whose every entry is a list of `width` (2 or 3)."""
    row_name = "pair" if width == 2 else "triple"
    if not isinstance(rows, list):
        raise ValueError(f"{what} must be a list of {row_name}s, got {rows!r}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(f"{what} entry {i} must be a {row_name}, got {row!r}")
    return rows


class Record:
    """Base of the package's value classes.

    They are plain classes because the standard library's generated records
    import `inspect` and `ast`, which costs every CLI process ~8 ms.  A
    subclass names its compared fields in `_fields`, declares `__slots__` and
    sets them in its own `__init__`.  Two records are equal iff they are of
    one class with equal fields, and hash like the tuple of those fields; a
    record whose fields are reassigned sets `__hash__ = None`.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
