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


def _interval_index(x: Fraction) -> int:
    """Index t with 2^-(t+1) < x <= 2^-t for x in (0, 1]."""
    t = 0
    while x <= Frac(1, 1 << (t + 1)):
        t += 1
    return t


def sample_path_d(
    x: Fraction, stage: int, script: EnumerationScript
) -> tuple[Fraction, Fraction]:
    """Evaluate the monotone parametrizing curve of the dendrite at x in [-1,1].

    The interval [2^-(2t+1), 2^-2t] carries rising t (up the right leg, across
    the cap, down the left leg, in decreasing x); the interval in between
    carries the base between consecutive risings.
    """
    x = Fraction(x)
    if x < -1 or x > 1:
        raise ValueError("parameter out of [-1, 1]")
    if x <= 0:
        return (x, Frac(0))

    def w(t: int) -> Fraction:
        return rising_width(script, t)

    i = _interval_index(x)
    lo = Frac(1, 1 << (i + 1))
    width = lo  # interval [lo, 2lo]
    if i % 2 == 0:
        t = i // 2
        xr = Frac(1, 1 << t)
        third = width / 3
        b0 = lo + third  # top of I^2 (left leg)
        b1 = lo + 2 * third  # top of I^1 (cap)
        hi = 2 * lo
        if x >= b1:  # I^0: right leg, bottom at x=hi, top at x=b1
            s = (hi - x) / third
            return (xr + w(t), s * xr)
        if x >= b0:  # I^1: cap, right at x=b1 -> left at x=b0
            s = (b1 - x) / third
            return (xr - w(t) + (1 - s) * 2 * w(t), xr)
        # I^2: left leg, top at x=b0, bottom at x=lo
        s = (x - lo) / third
        return (xr - w(t), s * xr)
    t = (i - 1) // 2
    right = Frac(1, 1 << t) - w(t)
    left = Frac(1, 1 << (t + 1)) + w(t + 1)
    s = (x - lo) / width
    return (left + s * (right - left), Frac(0))
