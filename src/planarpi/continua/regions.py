"""Triangle-clipped product regions.

These are the building blocks of the snake machine: boxes carrying scaled
copies of a one-dimensional set, clipped by a diagonal to route the copies
around a corner.  They are laid on integers: `level_ends` gives a fat level
as integer ends over one span, and `banded` lays them through an integer box.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .. import Record
from ..cantor import fat_level
from ..geom import ConvexPoly, _clip, box_piece, frac, to_ints


class Direction(Record):
    """Axis bit (0 horizontal / 1 vertical) and sense bit (0 negative / 1 positive)."""

    __slots__ = _fields = ("axis", "sense")

    def __init__(self, axis: int, sense: int):
        self.axis = axis
        self.sense = sense

    def reverse(self) -> "Direction":
        return Direction(self.axis, 1 - self.sense)

    @property
    def symbol(self) -> str:
        return {(0, 0): "←", (0, 1): "→", (1, 0): "↓", (1, 1): "↑"}[(self.axis, self.sense)]


LEFT = Direction(0, 0)
RIGHT = Direction(0, 1)
DOWN = Direction(1, 0)
UP = Direction(1, 1)

# corner symbols -> pair of triangle selectors (i,j) for the horizontal and
# vertical band families
CORNER_DELTAS = {
    "ll": ((1, 0), (0, 1)),
    "ur": ((0, 1), (1, 0)),
    "lr": ((0, 0), (1, 1)),
    "ul": ((1, 1), (0, 0)),
}


def _delta_plane(i: int, j: int, box) -> tuple[int, int, int]:
    """The triangle delta_ij of the integer box (x0, y0, x1, y1, d) as a
    halfplane for `geom._clip`: sx*r*(x - ax) + sy*q*(y - ay) <= q*r, with
    q, r the box's sides and (ax, ay) the corner the triangle leans on."""
    x0, y0, x1, y1, d = box
    q, r = x1 - x0, y1 - y0
    sx, sy = 1 - 2 * i, 1 - 2 * j
    ax, ay = (x1 if i else x0), (y1 if j else y0)
    return sx * r * d, sy * q * d, -(q * r + sx * r * ax + sy * q * ay)


def banded(symbol: str, box, ends: Sequence[int], span: int) -> list[ConvexPoly]:
    """Bands ends[2k]/span .. ends[2k+1]/span of the integer box
    (x0, y0, x1, y1, d): across it for '-', along it for '|'.

    A corner symbol lays both band families and clips the horizontal and
    vertical ones by the two complementary triangles of `CORNER_DELTAS`.
    """
    x0, y0, x1, y1, d = box
    q, r, w = x1 - x0, y1 - y0, d * span
    x0, y0, x1, y1 = x0 * span, y0 * span, x1 * span, y1 * span
    bands = list(zip(ends[::2], ends[1::2]))

    def family(horizontal: bool) -> list[ConvexPoly]:
        if horizontal:
            return [box_piece(x0, y0 + r * lo, x1, y0 + r * hi, w) for lo, hi in bands]
        return [box_piece(x0 + q * lo, y0, x0 + q * hi, y1, w) for lo, hi in bands]

    if symbol in ("-", "|"):
        return family(symbol == "-")
    if symbol not in CORNER_DELTAS:
        raise ValueError(f"unknown region symbol: {symbol}")
    out: list[ConvexPoly] = []
    for horizontal, (i, j) in zip((True, False), CORNER_DELTAS[symbol]):
        plane = _delta_plane(i, j, box)
        out.extend(p for band in family(horizontal) if (p := _clip(band, plane)) is not None)
    return out


def v_region(
    symbol: str,
    intervals: Sequence[tuple[Fraction, Fraction]],
    a,
    b,
    q,
    r,
) -> list[ConvexPoly]:
    """Scaled copies of a subset of [0,1] laid through a box: `banded` in
    the box's [0, 1] chart."""
    a, b, q, r = frac(a), frac(b), frac(q), frac(r)
    ivs = [(frac(lo), frac(hi)) for lo, hi in intervals]
    for lo, hi in ivs:
        if lo < 0 or hi > 1 or lo > hi:
            raise ValueError("intervals must sit inside [0, 1]")
    (x0, y0, x1, y1, *ends), d = to_ints(a, b, a + q, b + r, *(v for iv in ivs for v in iv))
    return banded(symbol, (x0, y0, x1, y1, d), ends, d)


def level_ends(tree, s: int, t: int) -> tuple[list[int], int]:
    """Stage-t fat level in the stage-s frame: integer ends e with e/span
    on [0, 1], two per interval, and span."""
    if t < s:
        raise ValueError("normalization needs t >= s")
    frame = fat_level(tree, s).lefts
    # a stage-s interval is [n, n + 5] over 3^(s+2): bring the frame's ends
    # over 3^(t+2) to subtract them from the stage-t ones
    k = 3 ** (t - s)
    l0 = frame[0] * k
    ends = [v for n in fat_level(tree, t).lefts for v in (n - l0, n + 5 - l0)]
    return ends, (frame[-1] + 5) * k - l0


def normalize_level(tree, s: int, t: int) -> list[tuple[Fraction, Fraction]]:
    """Stage-t fat level rescaled by the stage-s frame onto [0, 1]."""
    ends, span = level_ends(tree, s, t)
    return [(Fraction(lo, span), Fraction(hi, span)) for lo, hi in zip(ends[::2], ends[1::2])]
