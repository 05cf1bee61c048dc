"""Integer primitives under `planarpi.geom`.

Homogeneous points (X, Y, W), W > 0, each the point (X/W, Y/W); their
scaling to one common denominator; orientation; the convex hull of integer
points; the sweep-and-prune broad phase over boxes; and union-find.  All of
it is exact integer arithmetic.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

Hom = tuple[int, int, int]  # (X, Y, W) with W > 0: the point (X/W, Y/W)


def scaled(vs: Sequence[Hom]) -> tuple[list[tuple[int, int]], int]:
    """Homogeneous points as integer pairs over their least common
    denominator d, and d.  Pairs compare in (x, y) order."""
    d = lcm(*(w for _, _, w in vs))
    return [(x, y) if w == d else (x * (d // w), y * (d // w)) for x, y, w in vs], d


def canonical(pts: Sequence[tuple[int, int]], d: int) -> tuple[Hom, ...]:
    """The points pts / d as triples over their least common denominator."""
    g = gcd(d, *(c for pt in pts for c in pt))
    if g > 1:
        d //= g
        pts = [(x // g, y // g) for x, y in pts]
    return tuple((x, y, d) for x, y in pts)


def reduced(x: int, y: int, w: int) -> Hom:
    """(x, y, w), w != 0, divided by the gcd that leaves w > 0."""
    g = gcd(x, y, w)
    if w < 0:
        g = -g
    return (x, y, w) if g == 1 else (x // g, y // g, w // g)


def orient(p: Hom, q: Hom, r: Hom) -> int:
    """det[p; q; r]: positive when p, q, r turn counterclockwise, 0 when
    they are collinear (the cross product of q-p and r-p, times WpWqWr)."""
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def overlapping_pairs(boxes, others=None) -> list[tuple[int, int]]:
    """Index pairs of closed boxes that meet, by sweep and prune along x.

    A box is five ints (x0, y0, x1, y1, d), d > 0, for [x0/d, x1/d] x
    [y0/d, y1/d], as `ConvexPoly._ibox` gives it.  Without `others`: the
    pairs (i, j), i < j, of boxes that meet.  With `others`: the pairs
    (i, j) where boxes[i] meets others[j].  Boxes that only touch meet.
    """
    cross = others is not None
    sides = (boxes, others)[: 1 + cross]
    d = lcm(*(b[4] for side in sides for b in side))
    order = sorted(
        (b[0] * (d // b[4]), s, i) for s, side in enumerate(sides) for i, b in enumerate(side)
    )
    # an active box is (index, x1, y0, y1) over d, scaled when it enters
    active: list[list[tuple]] = [[] for _ in sides]
    pairs: list[tuple[int, int]] = []
    for x0, s, i in order:
        _, y0, x1, y1, e = sides[s][i]
        f = d // e
        y0, y1 = y0 * f, y1 * f
        o = 1 - s if cross else s  # the side this box pairs with
        alive = []
        for other in active[o]:
            k, bx1, by0, by1 = other
            if bx1 < x0:
                continue  # ends left of every box still to come
            alive.append(other)
            if not (by1 < y0 or y1 < by0):
                if cross:
                    pairs.append((k, i) if s else (i, k))
                else:
                    pairs.append((k, i) if k < i else (i, k))
        active[o] = alive
        active[s].append((i, x1 * f, y0, y1))
    return pairs


class UnionFind:
    """Union-find over 0..n-1 with path halving."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        self.parent[self.find(i)] = self.find(j)


def convex_hull(points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Andrew monotone chain; exact.  Collinear inputs collapse to 1-2 points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:
        return [min(pts), max(pts)]
    return hull
