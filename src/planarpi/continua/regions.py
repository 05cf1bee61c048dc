"""Triangle-clipped product regions and frame reparametrization.

These are the building blocks of the snake machine: boxes carrying scaled
copies of a one-dimensional set, clipped by a diagonal to route the copies
around a corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..cantor import fat_level
from ..geom import ConvexPoly, box_piece, clip_halfplane, frac, rect, to_ints


@dataclass(frozen=True)
class Direction:
    """Axis bit (0 horizontal / 1 vertical) and sense bit (0 negative / 1 positive)."""

    axis: int
    sense: int

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


def delta_cube(i: int, j: int, a, b, q, r) -> ConvexPoly:
    """Triangle on [a,a+q]x[b,b+r] omitting the corner (a+(1-i)q, b+(1-j)r):
    the box clipped by `delta_halfplane`.

    A degenerate box (q = 0 or r = 0) has no corner to omit and stays whole.
    """
    a, b, q, r = frac(a), frac(b), frac(q), frac(r)
    return clip_halfplane(rect(a, b, a + q, b + r), *delta_halfplane(i, j, a, b, q, r))


def delta_halfplane(i: int, j: int, a, b, q, r):
    """The triangle as a halfplane nx*x + ny*y <= c over the box."""
    a, b, q, r = frac(a), frac(b), frac(q), frac(r)
    sx = 1 if i == 0 else -1
    sy = 1 if j == 0 else -1
    # delta_ij = box cut by sx*r*(x-a') + sy*q*(y-b') <= qr with a' the
    # corner the triangle leans on
    ax = a if i == 0 else a + q
    ay = b if j == 0 else b + r
    nx = sx * r
    ny = sy * q
    c = q * r + nx * ax + ny * ay
    return nx, ny, c


def _interval_pieces(
    intervals: Sequence[tuple[Fraction, Fraction]],
    horizontal: bool,
    a: Fraction,
    b: Fraction,
    q: Fraction,
    r: Fraction,
) -> list[ConvexPoly]:
    # every coordinate is an integer over d^2, with d the common denominator
    (a, b, q, r, *ends), d = to_ints(a, b, q, r, *(v for iv in intervals for v in iv))
    pieces = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        if horizontal:
            pieces.append(box_piece(a * d, b * d + r * lo, (a + q) * d, b * d + r * hi, d * d))
        else:
            pieces.append(box_piece(a * d + q * lo, b * d, a * d + q * hi, (b + r) * d, d * d))
    return pieces


def v_region(
    symbol: str,
    intervals: Sequence[tuple[Fraction, Fraction]],
    a,
    b,
    q,
    r,
) -> list[ConvexPoly]:
    """Scaled copies of a subset of [0,1] laid through a box.

    Corner symbols clip the horizontal and vertical band families by the two
    complementary triangles; '-' and '|' are the unclipped band families.
    """
    a, b, q, r = frac(a), frac(b), frac(q), frac(r)
    ivs = [(frac(lo), frac(hi)) for lo, hi in intervals]
    for lo, hi in ivs:
        if lo < 0 or hi > 1 or lo > hi:
            raise ValueError("intervals must sit inside [0, 1]")
    if symbol == "-":
        return _interval_pieces(ivs, True, a, b, q, r)
    if symbol == "|":
        return _interval_pieces(ivs, False, a, b, q, r)
    if symbol not in CORNER_DELTAS:
        raise ValueError(f"unknown region symbol: {symbol}")
    (hi_sel, vi_sel) = CORNER_DELTAS[symbol]
    out: list[ConvexPoly] = []
    for horizontal, (di, dj) in ((True, hi_sel), (False, vi_sel)):
        plane = delta_halfplane(di, dj, a, b, q, r)
        for piece in _interval_pieces(ivs, horizontal, a, b, q, r):
            clipped = clip_halfplane(piece, *plane)
            if clipped is not None:
                out.append(clipped)
    return out


def n_coefficients(l_minus, r_plus, a, b, alpha, beta) -> tuple[Fraction, Fraction]:
    """(N0, N1) with N0 + N1*l_minus = a + b*alpha and N0 + N1*r_plus = a + b*beta."""
    l_minus, r_plus = frac(l_minus), frac(r_plus)
    a, b, alpha, beta = frac(a), frac(b), frac(alpha), frac(beta)
    if r_plus == l_minus:
        raise ValueError("degenerate frame")
    n1 = b * (beta - alpha) / (r_plus - l_minus)
    n0 = a + b * alpha - n1 * l_minus
    return n0, n1


def normalize_level(tree, s: int, t: int) -> list[tuple[Fraction, Fraction]]:
    """Stage-t fat level rescaled by the stage-s frame onto [0, 1]."""
    if t < s:
        raise ValueError("normalization needs t >= s")
    frame = fat_level(tree, s)
    lvl = fat_level(tree, t)
    # every stage-s endpoint has denominator exactly 3^(s+2): bring the
    # frame's numerators over 3^(t+2) and make each endpoint in one step
    k = 3 ** (t - s)
    l0 = frame.l_minus.numerator * k
    span = frame.r_plus.numerator * k - l0
    return [(Fraction(lo.numerator - l0, span), Fraction(hi.numerator - l0, span))
            for lo, hi in lvl.intervals]
