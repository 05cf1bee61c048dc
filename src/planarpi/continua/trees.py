"""Plotted binary trees, probe balls, fat approximations, and the tree dendrite.

A tree embeds in the plane with the root at (1/2, 1) and level-k vertices on
the line y = 2^-k; probe balls recover the tree from negative or positive
information about the plotted set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from ..cantor import TreePresentation, _ternary_code, check_bits, leftmost_path
from ..cesets import EnumerationScript, stage_function
from ..balls import BallSpec
from ..geom import (
    ConvexPoly,
    RegionSnapshot,
    _sq_sign,
    overlapping_pairs,
    rect,
    segment,
    to_ints,
)
from .dendrite import _base_pieces, _rising, rising_width

Frac = Fraction


@lru_cache(maxsize=None)
def plot_point(sigma: str) -> tuple[Fraction, Fraction]:
    """Planar vertex of a binary string: root (1/2, 1), level k at y = 2^-k.

    Its x is the middle of sigma's level-k middle-thirds interval
    [c / 3^k, (c + 1) / 3^k], c = `_ternary_code(sigma)`.
    """
    check_bits(sigma)
    k = len(sigma)
    return (Frac(1 + 2 * _ternary_code(sigma), 2 * 3**k), Frac(1, 1 << k))


def _tree_edges(tree: TreePresentation, stage: int, depth: int) -> list[str]:
    """Surviving strings of length 1..depth (each names the edge to its parent)."""
    out = []
    for length in range(1, depth + 1):
        out.extend(tree.level(length, stage))
    return out


def plotted_tree(tree: TreePresentation, stage: int, depth: int) -> RegionSnapshot:
    """Edge set between surviving strings of length <= depth: the width-0
    fat tree.  A surviving root has a surviving child, so it is never a
    lone point."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return RegionSnapshot(stage, _fat_pieces(_tree_edges(tree, stage, depth), (), Frac(0), depth))


def _full_tree_edges_near(
    x_lo: Fraction, x_hi: Fraction, y_lo: Fraction
) -> list[tuple[str, ConvexPoly]]:
    """Full-tree edges whose subtree window can reach [x_lo,x_hi] x [y_lo, 1].

    The subtree below tau spans x in [c / 3^len, (c + 1) / 3^len],
    c = `_ternary_code(tau)`, and y in (0, 2^-(len-1)], so whole branches
    prune away exactly; the walk ends once the levels drop below y_lo > 0.
    """
    out = []
    stack = [""]
    while stack:
        tau = stack.pop()
        if tau:
            out.append((tau, segment(plot_point(tau[:-1]), plot_point(tau))))
        if Frac(1, 1 << len(tau)) < y_lo:
            continue  # every deeper edge lies below the window
        px = plot_point(tau)[0]
        for b in ("1", "0"):
            child = tau + b
            c, den = _ternary_code(child), 3 ** len(child)
            lo, hi = min(Frac(c, den), px), max(Frac(c + 1, den), px)
            if lo <= x_hi and hi >= x_lo:
                stack.append(child)
    return out


@lru_cache(maxsize=None)
def probe_balls(sigma: str) -> tuple[BallSpec, Optional[BallSpec]]:
    """Negative and positive probe balls of a string.

    The negative ball sits on the vertex with radius 2^-(len+2).  The positive
    ball sits on the midpoint of the parent edge, with the largest radius of
    the form 2^-k whose open ball meets no other edge of the full plotted
    tree (checked exactly against every edge that could reach it).
    """
    check_bits(sigma)
    # radius min(2^-(len+2), 3^-(len+1)): the dyadic radius alone lets
    # sibling balls overlap from level 4 on (gap 2*3^-k < 2^-(k+1))
    r_minus = min(Frac(1, 1 << (len(sigma) + 2)), Frac(1, 3 ** (len(sigma) + 1)))
    minus = BallSpec(plot_point(sigma), r_minus, kind="open")
    if not sigma:
        return minus, None
    a = plot_point(sigma[:-1])
    b = plot_point(sigma)
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    (x, y), w = to_ints(*mid)
    for k in range(len(sigma), len(sigma) + 40):
        # mid_y - r >= 3 * 2^-(len+1) - 2^-len > 0, so the walk below ends
        r = Frac(1, 1 << k)
        near = _full_tree_edges_near(mid[0] - r, mid[0] + r, mid[1] - r)
        if not any(tau != sigma and _sq_sign((x, y, w), e, r * r) < 0 for tau, e in near):
            return minus, BallSpec(mid, r, kind="open")
    raise AssertionError("no admissible positive ball radius found")


class PlottedTreePresentation:
    """Stage-indexed plotted-tree snapshots, shaped like a co-c.e. presentation."""

    def __init__(self, tree: TreePresentation, depth: int):
        self.tree = tree
        self.depth = depth
        self.final_stage = tree.final_stage
        self._cache: dict[int, RegionSnapshot] = {}

    def snapshot(self, stage: int) -> RegionSnapshot:
        stage = min(stage, self.final_stage)
        if stage not in self._cache:
            self._cache[stage] = plotted_tree(self.tree, stage, self.depth)
        return self._cache[stage]


@dataclass(frozen=True)
class RecoveredTree:
    strings: tuple[str, ...]
    region_empty: bool


def recover_tree(presentation, stage: int, depth: int) -> RecoveredTree:
    """Strings whose positive ball meets the stage snapshot, plus the root."""
    pieces = presentation.snapshot(stage).pieces
    strings = [format(i, f"0{n}b") for n in range(1, depth + 1) for i in range(1 << n)]
    balls = [probe_balls(sigma)[1] for sigma in strings]
    # a piece whose box misses the ball's closed box is farther than the radius
    ball_boxes, centres = [], []  # each centre as a homogeneous int triple
    for ball in balls:
        (x, y), r = ball.center, ball.radius
        ball_boxes.append((x - r, y - r, x + r, y + r))
        (xn, yn), w = to_ints(x, y)
        centres.append((xn, yn, w))
    met: set[int] = set()
    for i, j in overlapping_pairs(ball_boxes, [p.bbox() for p in pieces]):
        if i not in met and _sq_sign(centres[i], pieces[j], balls[i].radius ** 2) < 0:
            met.add(i)
    hits = tuple(strings[i] for i in sorted(met))
    return RecoveredTree(strings=("",) + hits, region_empty=not met)


# -- fat approximations -------------------------------------------------------


def _fat_pieces(
    edges: Sequence[str], leaves: Sequence[str], w: Fraction, depth: int, affine=(1, 0, 1, 0)
) -> list[ConvexPoly]:
    """Two shifted copies per edge plus a cap joining the copies at each leaf,
    mapped by (x, y) -> (ax*x + bx, ay*y + by) for affine = (ax, bx, ay, by).

    The copy of vertex sigma shifted by sign * w * 3^-len(sigma) is
    (X / (2 * 3^depth * den(w)), Y / 2^depth) for integers X and Y, and the
    map is composed onto them, so each vertex is one integer triple over one
    denominator.  The caps are the stage-bounded stand-in for the closure of
    the infinite fat tree; with w = 0 everything collapses onto the plotted
    edges.
    """
    ax, bx, ay, by = affine
    wn, wd = w.numerator, w.denominator
    (a, b, g, e), m = to_ints(Frac(ax, 2 * 3**depth * wd), bx, Frac(ay, 1 << depth), by)
    copies: dict[tuple[str, int], tuple[int, int, int]] = {}

    def copy(sigma: str, sign: int) -> tuple[int, int, int]:
        if (sigma, sign) not in copies:
            k = depth - len(sigma)
            x = ((1 + 2 * _ternary_code(sigma)) * wd + 2 * sign * wn) * 3**k
            copies[sigma, sign] = (a * x + b, g * (1 << k) + e, m)
        return copies[sigma, sign]

    signs = (-1, 1) if wn else (1,)  # with w = 0 the two copies coincide
    pieces = [
        ConvexPoly._convex([copy(sigma[:-1], sign), copy(sigma, sign)])
        for sigma in edges
        for sign in signs
    ]
    if wn:
        pieces.extend(ConvexPoly._convex([copy(sigma, -1), copy(sigma, 1)]) for sigma in leaves)
    return pieces


def fat_tree(
    tree: TreePresentation, w: Fraction, stage: int, depth: int
) -> RegionSnapshot:
    """Edge set of the width-w fat approximation, truncated at the given depth."""
    edges = _tree_edges(tree, stage, depth)
    leaves = tree.level(depth, stage)
    return RegionSnapshot(stage, _fat_pieces(edges, leaves, Fraction(w), depth))


def _placement(c: Fraction, t: int, q: Fraction):
    """The affine map x -> c + q * (x - 1/2), y -> (2 - y) / 2^(t+1)."""
    return q, c - q / 2, Frac(-1, 1 << (t + 1)), Frac(1, 1 << t)


def placed_fat_tree(
    tree: TreePresentation,
    w: Fraction,
    c: Fraction,
    t: int,
    q: Fraction,
    stage: int,
    depth: int,
) -> RegionSnapshot:
    """Fat tree mapped into [c-q/2, c+q/2] x [2^-(t+1), 2^-t] (root at the bottom)."""
    edges = _tree_edges(tree, stage, depth)
    leaves = tree.level(depth, stage)
    place = _placement(Fraction(c), t, Fraction(q))
    return RegionSnapshot(stage, _fat_pieces(edges, leaves, Fraction(w), depth, place))


# -- the tree dendrite --------------------------------------------------------


def build_dendrite_h(
    stage: int, script: EnumerationScript, tree: TreePresentation
) -> RegionSnapshot:
    """Risings carry placed fat trees: the full (truncated) tree while the
    index is unenumerated, the leftmost path frozen at enumeration stage after.

    The fat-tree width parameter is scaled by 2^(t+2) so the placed root
    copies land exactly on the two legs at x = 2^-t +- w(t).
    """
    if tree.is_empty(stage):
        raise ValueError("empty tree presentation")
    depth = max(stage, 1)
    full = _tree_edges(tree, stage, depth), tree.level(depth, stage)
    pieces: list[ConvexPoly] = []
    gaps = []
    for t in range(stage + 1):
        x = Frac(1, 1 << t)
        w = rising_width(script, t)
        legs_top = Frac(1, 1 << (t + 1))
        pieces.extend(_rising(x, w, legs_top, cap=False))
        gaps.append((x - w, x + w))
        st = stage_function(script, t)
        if st is None:
            edges, leaves = full
        else:
            path = leftmost_path(tree, st, depth)
            edges, leaves = [path[: k + 1] for k in range(depth)], [path]
        place = _placement(x, t, Frac(1, 1 << (t + 2)))
        pieces.extend(_fat_pieces(edges, leaves, w * (1 << (t + 2)), depth, place))
    pieces.extend(_base_pieces(gaps))
    return RegionSnapshot(stage, pieces)


def h_cut_box(t: int, depth: int) -> ConvexPoly:
    """Closed strip covering the top slice of the t-th placed tree.

    Removing it severs a single fat path (copies only rejoin at the cap) but
    not a branching tree (crossings below the slice reconnect the copies).
    """
    x_lo = 3 * Frac(1, 1 << (t + 2))
    x_hi = 5 * Frac(1, 1 << (t + 2))
    y_tip = (2 - Frac(1, 1 << depth)) / (1 << (t + 1))
    return rect(x_lo, y_tip, x_hi, 2)
