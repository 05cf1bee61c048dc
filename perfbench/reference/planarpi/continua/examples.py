"""Reference builders: basic dendrite, harmonic comb, Cantor fan."""

from __future__ import annotations

from fractions import Fraction

from ..geom import RegionSnapshot, point, segment

Frac = Fraction


def basic_dendrite(stage: int) -> RegionSnapshot:
    """Base [-1,1]x{0} plus a rising of height 2^-t at x = 2^-t for t <= stage."""
    pieces = [segment((-1, 0), (1, 0))]
    for t in range(stage + 1):
        x = Frac(1, 1 << t)
        pieces.append(segment((x, 0), (x, x)))
    return RegionSnapshot(stage, pieces)


def harmonic_comb(stage: int) -> RegionSnapshot:
    """Grip [0,1]x{0}, risings at 1/n for 1 <= n <= stage, limit rising at 0."""
    pieces = [segment((0, 0), (1, 0)), segment((0, 0), (0, 1))]
    for n in range(1, stage + 1):
        x = Frac(1, n)
        pieces.append(segment((x, 0), (x, 1)))
    return RegionSnapshot(stage, pieces)


def cantor_endpoints(level: int) -> list[Fraction]:
    """Endpoints of the level-`level` middle-thirds intervals, sorted."""
    intervals = [(Frac(0), Frac(1))]
    for _ in range(level):
        nxt = []
        for lo, hi in intervals:
            third = (hi - lo) / 3
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        intervals = nxt
    pts: set[Fraction] = set()
    for lo, hi in intervals:
        pts.add(lo)
        pts.add(hi)
    return sorted(pts)


def cantor_fan(stage: int) -> RegionSnapshot:
    """Cone from the apex (1/2, 0) over the stage-level Cantor endpoints at y=1."""
    apex = (Frac(1, 2), Frac(0))
    pieces = [segment(apex, (x, 1)) for x in cantor_endpoints(stage)]
    if not pieces:
        pieces = [point(*apex)]
    return RegionSnapshot(stage, pieces)
