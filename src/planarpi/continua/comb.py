"""Tower of harmonic combs whose rising widths track a limit-computable choice.

The t-th comb lives over [2^-(2t+1), 2^-2t]; its u-th rising fattens exactly
when the scripted state maximization ever selects u for argument t, with
width decaying in the stage of first selection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..cesets import SequenceFamily, limit_f
from ..geom import ConvexPoly, RegionSnapshot, rect, segment
from .dendrite import _base_pieces, _rising

Frac = Fraction


def comb_center(t: int, u: int) -> Fraction:
    """Center position of the u-th rising of the t-th comb."""
    return Frac(1, 1 << (2 * t + 1)) + Frac(1, 1 << (2 * t + u + 1))


@lru_cache(maxsize=64)
def _first_choices(fam: SequenceFamily, t: int, stage: int, search_bound: int) -> dict[int, int]:
    """u -> the least s <= stage with f_s(t) = u, for each u so chosen.  The
    family is keyed by value, so each u of equal families reuses one pass."""
    first: dict[int, int] = {}
    for s in range(stage + 1):
        first.setdefault(limit_f(fam, t, s, search_bound), s)
    return first


def rising_scale(fam: SequenceFamily, t: int, u: int, stage: int, search_bound: int) -> Fraction:
    """v(t,u) = 2^-s for the least s <= stage with f_s(t) = u, else 0."""
    s = _first_choices(fam, t, stage, search_bound).get(u)
    return Frac(0) if s is None else Frac(1, 1 << s)


def comb_width(fam: SequenceFamily, t: int, u: int, stage: int, search_bound: int) -> Fraction:
    """v*(t,u) = v(t,u) * 2^-(2t+u+3)."""
    return rising_scale(fam, t, u, stage, search_bound) * Frac(1, 1 << (2 * t + u + 3))


def comb_cut_box(t: int, u: int) -> ConvexPoly:
    """Closed box around the cap zone of rising (t,u)."""
    c = comb_center(t, u)
    w = Frac(1, 1 << (2 * t + u + 3))
    y = Frac(1, 1 << t)
    return rect(c - w, y - w, c + w, y + w)


def build_dendroid_k(
    stage: int, fam: SequenceFamily, search_bound: int | None = None
) -> RegionSnapshot:
    """Combs t <= stage with risings u <= stage, joined along the baseline.

    The connecting base is truncated at 2^-(2*stage+2): the stage-bounded
    stand-in for the accumulation of the remaining combs at 0.
    """
    if search_bound is None:
        search_bound = max(stage, len(fam.members))
    pieces: list[ConvexPoly] = []
    for t in range(stage + 1):
        left = Frac(1, 1 << (2 * t + 1))
        right = Frac(1, 1 << (2 * t))
        height = Frac(1, 1 << t)
        pieces.append(segment((left, 0), (left, height)))  # limit rising
        gaps = []
        for u in range(stage + 1):
            c = comb_center(t, u)
            w = comb_width(fam, t, u, stage, search_bound)
            pieces.extend(_rising(c, w, height))
            gaps.append((c - w, c + w))
        pieces.extend(_base_pieces(gaps, lo=left, hi=right))
        # bridge toward the next comb
        pieces.append(segment((Frac(1, 1 << (2 * t + 2)), 0), (left, 0)))
    pieces.append(segment((-1, 0), (Frac(1, 1 << (2 * stage + 2)), 0)))
    return RegionSnapshot(stage, pieces)
