"""Independent oracles used to freeze derived expectations.

These deliberately avoid the code paths they check: connectivity is
re-derived by rasterized flood fill with its own separating-axis cell test,
and the limit function by exhaustive state comparison.
"""

from __future__ import annotations

from fractions import Fraction

from planarpi.cesets import SequenceFamily, e_state
from planarpi.geom import ConvexPoly, RegionSnapshot, _cross, boxes_overlap, rect


def _dot(ax, ay, bx, by) -> Fraction:
    return ax * bx + ay * by


def _contains_point(poly: ConvexPoly, p) -> bool:
    v = poly.vertices
    if len(v) == 1:
        return p == v[0]
    if len(v) == 2:
        a, b = v
        if _cross(a, b, p) != 0:
            return False
        t = _dot(p[0] - a[0], p[1] - a[1], b[0] - a[0], b[1] - a[1])
        length = _dot(b[0] - a[0], b[1] - a[1], b[0] - a[0], b[1] - a[1])
        return 0 <= t <= length
    return all(_cross(a, b, p) >= 0 for a, b in poly.edges())


def _project(poly: ConvexPoly, ax: Fraction, ay: Fraction) -> tuple[Fraction, Fraction]:
    vals = [_dot(ax, ay, x, y) for x, y in poly.vertices]
    return min(vals), max(vals)


def _sat_axes(poly: ConvexPoly) -> list[tuple[Fraction, Fraction]]:
    axes = []
    for (ax_, ay_), (bx, by) in poly.edges():
        dx, dy = bx - ax_, by - ay_
        axes.append((-dy, dx))  # edge normal
        axes.append((dx, dy))  # edge direction (separates collinear segments)
    return axes


def sat_intersect(a: ConvexPoly, b: ConvexPoly) -> bool:
    """Reference closed-set intersection test for convex pieces: the
    separating axis theorem over both pieces' edge normals and directions,
    with its own point containment, kept apart from `geom.polys_intersect`
    and `ConvexPoly.contains_point`, which clip by halfplanes."""
    if a.dim() == 0:
        return _contains_point(b, a.vertices[0])
    if b.dim() == 0:
        return _contains_point(a, b.vertices[0])
    if not boxes_overlap(a.bbox(), b.bbox()):
        return False
    for axis in _sat_axes(a) + _sat_axes(b):
        lo_a, hi_a = _project(a, *axis)
        lo_b, hi_b = _project(b, *axis)
        if hi_a < lo_b or hi_b < lo_a:
            return False
    return True


def flood_fill_components(region: RegionSnapshot, pitch_exp: int) -> int:
    """Component count of the 2^-pitch_exp rasterization (8-connectivity).

    Valid as a connectivity oracle whenever the minimal gap between true
    components exceeds 2^-(pitch_exp-2).
    """
    h = Fraction(1, 1 << pitch_exp)
    occupied: set[tuple[int, int]] = set()
    for piece in region.pieces:
        x0, y0, x1, y1 = piece.bbox()
        i0 = (x0.numerator * (1 << pitch_exp)) // x0.denominator
        i1 = (x1.numerator * (1 << pitch_exp)) // x1.denominator
        j0 = (y0.numerator * (1 << pitch_exp)) // y0.denominator
        j1 = (y1.numerator * (1 << pitch_exp)) // y1.denominator
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                if (i, j) in occupied:
                    continue
                cell = rect(i * h, j * h, (i + 1) * h, (j + 1) * h)
                if sat_intersect(cell, piece):
                    occupied.add((i, j))
    seen: set[tuple[int, int]] = set()
    components = 0
    for start in occupied:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            ci, cj = stack.pop()
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    nxt = (ci + di, cj + dj)
                    if nxt in occupied and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return components


def raster_covers(cover, target, pitch_exp: int) -> bool:
    """union(target) inside union(cover), decided on the 2^-pitch_exp lattice.

    Valid when every piece is a closed box with corners on the
    2^-(pitch_exp-1) grid: each open face (cell, edge or vertex) of that
    grid then lies inside a box or misses it, and its centre is a lattice
    point.
    """
    scale = 1 << pitch_exp
    for piece in target:
        x0, y0, x1, y1 = (int(v * scale) for v in piece.bbox())
        for i in range(x0, x1 + 1):
            for j in range(y0, y1 + 1):
                p = (Fraction(i, scale), Fraction(j, scale))
                if not any(_contains_point(c, p) for c in cover):
                    return False
    return True


def brute_force_limit_f(fam: SequenceFamily, e: int, stage: int, bound: int) -> int:
    """Reference maximal-state search: scan every y and compare bit tuples."""
    states = [(e_state(fam, e, y, stage), -y) for y in range(bound + 1)]
    best = max(states)
    return -best[1]
