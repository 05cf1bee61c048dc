"""Exact rational snapshots of pathological planar co-c.e. continua."""

__version__ = "0.1.0"
