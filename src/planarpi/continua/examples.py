"""Reference builders: basic dendrite, harmonic comb, Cantor fan."""

from __future__ import annotations

from fractions import Fraction

from ..cantor import _ternary_code, all_strings
from ..geom import RegionSnapshot, segment

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
    """Endpoints of the level-`level` middle-thirds intervals, sorted: sigma's
    interval is [c / 3^level, (c + 1) / 3^level], c = `_ternary_code(sigma)`."""
    codes = [_ternary_code(sigma) for sigma in all_strings(level)]
    return sorted({Frac(c + e, 3**level) for c in codes for e in (0, 1)})


def cantor_fan(stage: int) -> RegionSnapshot:
    """Cone from the apex (1/2, 0) over the stage-level Cantor endpoints at y=1."""
    apex = (Frac(1, 2), Frac(0))
    return RegionSnapshot(stage, [segment(apex, (x, 1)) for x in cantor_endpoints(stage)])
