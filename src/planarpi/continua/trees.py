"""Plotted binary trees, probe balls, fat approximations, and the tree dendrite.

A tree embeds in the plane with the root at (1/2, 1) and level-k vertices on
the line y = 2^-k; probe balls recover the tree from negative or positive
information about the plotted set.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .. import Record
from ..cantor import TreePresentation, _key, check_bits, leftmost_path
from ..cesets import EnumerationScript, stage_function
from ..balls import BallSpec
from ..geom import (
    ConvexPoly,
    RegionSnapshot,
    _point_sq,
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
    [c / 3^k, (c + 1) / 3^k], c = `_key(sigma)` - 3^k.
    """
    check_bits(sigma)
    k = len(sigma)
    return (Frac(1 + 2 * (_key(sigma) - 3**k), 2 * 3**k), Frac(1, 1 << k))


def _tree_edges(tree: TreePresentation, stage: int, depth: int) -> list[list[int]]:
    """The ascending keys of the surviving strings of each length 1..depth,
    depth >= 1; a key k names the edge to its parent k // 3.  One walk reads
    the deepest list, and each shorter one is the parents of the next, since
    a survivor has a surviving child."""
    levels = [tree.level(depth, stage)]
    while len(levels) < depth:
        levels.append(list(dict.fromkeys(k // 3 for k in levels[-1])))
    return levels[::-1]


def plotted_tree(tree: TreePresentation, stage: int, depth: int) -> RegionSnapshot:
    """Edge set between surviving strings of length <= depth: the width-0
    fat tree.  A surviving root has a surviving child, so it is never a
    lone point."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return RegionSnapshot(stage, _fat_pieces(_tree_edges(tree, stage, depth), Frac(0), depth))


def _full_tree_edges_near(
    x_lo: Fraction, x_hi: Fraction, y_lo: Fraction
) -> list[tuple[str, ConvexPoly]]:
    """Full-tree edges whose subtree window can reach [x_lo,x_hi] x [y_lo, 1].

    The subtree below tau spans x in [c / 3^len, (c + 1) / 3^len],
    c = `_key(tau)` - 3^len, and y in (0, 2^-(len-1)], so whole branches
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
            den = 3 ** len(child)
            c = _key(child) - den
            lo, hi = min(Frac(c, den), px), max(Frac(c + 1, den), px)
            if lo <= x_hi and hi >= x_lo:
                stack.append(child)
    return out


@lru_cache(maxsize=None)
def probe_balls(sigma: str) -> tuple[BallSpec, Optional[BallSpec]]:
    """Negative and positive probe balls of a string.

    The negative ball sits on the vertex with radius 2^-(len+2).  The positive
    ball sits on the midpoint of the parent edge, with the largest radius
    2^-k, k >= len, whose square is at most the exact squared distance from
    the midpoint to every other edge of the full plotted tree.
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
    r = Frac(1, 1 << len(sigma))
    # mid_y - r >= 3 * 2^-(len+1) - 2^-len > 0, so the walk ends; the windows
    # of smaller radii nest in this one, so one walk serves every radius
    near = _full_tree_edges_near(mid[0] - r, mid[0] + r, mid[1] - r)
    gap = min(Frac(*_point_sq((x, y, w), e)) for tau, e in near if tau != sigma)
    for _ in range(40):
        if r * r <= gap:
            return minus, BallSpec(mid, r, kind="open")
        r /= 2
    raise AssertionError("no admissible positive ball radius found")


class RecoveredTree(Record):
    __slots__ = _fields = ("strings", "region_empty")

    def __init__(self, strings: tuple[str, ...], region_empty: bool):
        self.strings = strings
        self.region_empty = region_empty


def recover_tree(snapshot: RegionSnapshot, depth: int) -> RecoveredTree:
    """Strings whose positive ball meets the snapshot, plus the root."""
    pieces = snapshot.pieces
    strings = [format(i, f"0{n}b") for n in range(1, depth + 1) for i in range(1 << n)]
    balls = [probe_balls(sigma)[1] for sigma in strings]
    # a piece whose box misses the ball's closed box is farther than the radius
    ball_boxes, centres = [], []  # each centre as a homogeneous int triple
    for ball in balls:
        (x, y, r), d = to_ints(*ball.center, ball.radius)
        ball_boxes.append((x - r, y - r, x + r, y + r, d))
        centres.append((x, y, d))
    met: set[int] = set()
    for i, j in overlapping_pairs(ball_boxes, [p._ibox() for p in pieces]):
        if i not in met and Frac(*_point_sq(centres[i], pieces[j])) < balls[i].radius ** 2:
            met.add(i)
    hits = tuple(strings[i] for i in sorted(met))
    return RecoveredTree(strings=("",) + hits, region_empty=not met)


# -- fat approximations -------------------------------------------------------


def _fat_pieces(
    edges: Sequence[Sequence[int]], w: Fraction, depth: int, affine=(1, 0, 1, 0)
) -> list[ConvexPoly]:
    """Two shifted copies per edge plus a cap joining the copies at each leaf,
    mapped by (x, y) -> (ax*x + bx, ay*y + by) for affine = (ax, bx, ay, by).
    `edges[n - 1]` holds the keys of the length-n edge ends for n = 1..depth,
    as `_tree_edges` gives them, and the leaves are the length-depth ends.

    The copy of the length-n vertex with key k (code k - 3^n), shifted by
    sign * w * 3^-n, is (X / (2 * 3^depth * den(w)), Y / 2^depth) for
    integers X and Y, and the map is composed onto them, so each vertex is
    one integer triple over one denominator.  The caps are the
    stage-bounded stand-in for the closure of the infinite fat tree; with
    w = 0 everything collapses onto the plotted edges.
    """
    ax, bx, ay, by = affine
    wn, wd = w.numerator, w.denominator
    (a, b, g, e), m = to_ints(Frac(ax, 2 * 3**depth * wd), bx, Frac(ay, 1 << depth), by)
    copies: dict[tuple[int, int], tuple[int, int, int]] = {}

    def copy(key: int, n: int, sign: int) -> tuple[int, int, int]:
        if (key, sign) not in copies:
            k = depth - n
            x = ((1 + 2 * (key - 3**n)) * wd + 2 * sign * wn) * 3**k
            copies[key, sign] = (a * x + b, g * (1 << k) + e, m)
        return copies[key, sign]

    signs = (-1, 1) if wn else (1,)  # with w = 0 the two copies coincide
    pieces = [
        ConvexPoly._convex([copy(key // 3, n - 1, sign), copy(key, n, sign)])
        for n, keys in enumerate(edges, 1)
        for key in keys
        for sign in signs
    ]
    if wn:
        pieces.extend(ConvexPoly._convex([copy(k, depth, s) for s in signs]) for k in edges[-1])
    return pieces


def _placement(c: Fraction, t: int, q: Fraction):
    """The affine map x -> c + q * (x - 1/2), y -> (2 - y) / 2^(t+1)."""
    return q, c - q / 2, Frac(-1, 1 << (t + 1)), Frac(1, 1 << t)


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
    depth = _h_depth(stage)
    full = _tree_edges(tree, stage, depth)
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
            edges = full
        else:
            path = leftmost_path(tree, st, depth)
            edges = [[path // 3 ** (depth - n)] for n in range(1, depth + 1)]
        place = _placement(x, t, Frac(1, 1 << (t + 2)))
        pieces.extend(_fat_pieces(edges, w * (1 << (t + 2)), depth, place))
    pieces.extend(_base_pieces(gaps))
    return RegionSnapshot(stage, pieces)


def _h_depth(stage: int) -> int:
    """The depth to which the tree dendrite truncates its trees at `stage`."""
    return max(stage, 1)


def h_cut_box(t: int, stage: int) -> ConvexPoly:
    """Closed strip covering the top slice of the t-th placed tree at `stage`.

    Removing it severs a single fat path (copies only rejoin at the cap) but
    not a branching tree (crossings below the slice reconnect the copies).
    """
    x_lo = 3 * Frac(1, 1 << (t + 2))
    x_hi = 5 * Frac(1, 1 << (t + 2))
    y_tip = (2 - Frac(1, 1 << _h_depth(stage))) / (1 << (t + 1))
    return rect(x_lo, y_tip, x_hi, 2)
