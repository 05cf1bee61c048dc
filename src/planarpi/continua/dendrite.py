"""The width-modulated dendrite driven by an enumeration script.

Risings of the basic dendrite fatten into a two-leg-and-cap gate once their
index is enumerated; the gate width 2^-(2+st(t)) encodes the stage of
enumeration, and the base loses the open interval underneath.
"""

from __future__ import annotations

from fractions import Fraction
from ..cesets import EnumerationScript, stage_function
from ..balls import BallSpec
from ..geom import ConvexPoly, RegionSnapshot, segment

Frac = Fraction


def rising_width(script: EnumerationScript, t: int) -> Fraction:
    """w(t) = 2^-(2+st(t)) when t is enumerated, else 0."""
    st = stage_function(script, t)
    if st is None:
        return Frac(0)
    return Frac(1, 1 << (2 + st))


def cut_ball(t: int) -> BallSpec:
    """Closed probe ball centered on the t-th rising cap."""
    x = Frac(1, 1 << t)
    return BallSpec(center=(x, x), radius=Frac(1, 1 << (t + 2)), kind="closed")


def _base_pieces(gaps: list[tuple[Fraction, Fraction]], lo=Frac(-1), hi=Frac(1)):
    cuts = sorted(g for g in gaps if g[0] < g[1])
    pieces = []
    cursor = lo
    for g0, g1 in cuts:
        if g0 > cursor:
            pieces.append(segment((cursor, 0), (g0, 0)))
        cursor = max(cursor, g1)
    if cursor < hi:
        pieces.append(segment((cursor, 0), (hi, 0)))
    return pieces


def _rising(x: Fraction, w: Fraction, height: Fraction, cap: bool = True) -> list[ConvexPoly]:
    """A rising at x up to height: one segment when w == 0, else two legs at
    x -+ w, joined by a cap when `cap` is set."""
    if w == 0:
        return [segment((x, 0), (x, height))]
    legs = [segment((x - w, 0), (x - w, height)), segment((x + w, 0), (x + w, height))]
    return [*legs, segment((x - w, height), (x + w, height))] if cap else legs


def build_dendrite_d(stage: int, script: EnumerationScript) -> RegionSnapshot:
    """Stage snapshot: risings t <= stage over the base, gates where enumerated."""
    pieces = []
    gaps = []
    for t in range(stage + 1):
        x = Frac(1, 1 << t)
        w = rising_width(script, t)
        pieces.extend(_rising(x, w, x))
        gaps.append((x - w, x + w))
    pieces.extend(_base_pieces(gaps))
    return RegionSnapshot(stage, pieces)

