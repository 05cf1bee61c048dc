"""Independent oracles used to freeze derived expectations.

These deliberately avoid the code paths they check: connectivity is
re-derived by rasterized flood fill with its own separating-axis cell test,
the limit function by exhaustive state comparison, the integer kernel of
`planarpi.geom` by the `Fraction` kernel it replaced (clips, intersections,
differences, containment, distances and Hausdorff bounds, all computed on
`Fraction` vertices), the fan's touch decision by the merge of `Fraction`
chart parameters it replaced, and the fat Cantor levels by the code they
replaced: a survival test on every string of every length, and four
`Fraction`s per interval.  Survival itself is the recursive closure that
one closed set of removed strings per stage replaced; the leftmost path and
the fan's symmetry check, a loop over every length at every stage, read it
too.  Symmetrization tests every string up to the prune horizon and its
mirror at every stage.  The fan's block bodies and frames are rebuilt as they were on
`Fraction`s: each level rescaled onto [0, 1] and laid back through the box,
each frame solved from six coefficients.  The fat trees
and the tree dendrite are rebuilt the way they were before they moved to
integers: each fat edge made from `Fraction` points through the hull
constructor, then placed vertex by vertex and made again.  Ball polygons are
made as before they moved to integers: `Fraction` points on the unit circle,
scaled and shifted, through the hull constructor.  Where one idea had two
implementations, the one that was removed is kept: the integer distance's
own edge loop, the Cantor endpoints by interval splitting, the plot point
from `cantor_coord`, the plotted tree from its own segments, the probe
balls with their depth loop, and the Hausdorff refinement that freezes a
piece whose bounds meet and bounds each piece by two separate nearest-first
searches.  The fan's snake is grown by the builder it had
before it grew at its head: each block chained from a threaded predecessor,
the base frame found by a scan of the blocks, the track's endpoints summed
as `Fraction`s, and the guards that no input reaches still in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from planarpi import balls, cantor, geom
from planarpi.cantor import BITS, FatCantorLevel, check_bits, pad_eps
from planarpi.cesets import SequenceFamily, e_state, stage_function
from planarpi.continua import fanq
from planarpi.continua.fanq import BlockGraph, BlockRecord, _collinear, _edge_segment
from planarpi.continua.dendrite import _base_pieces, _rising, rising_width
from planarpi.continua.regions import LEFT, RIGHT, UP, Direction
from planarpi.continua.trees import _tree_edges, plot_point
from planarpi.geom import (
    ConvexPoly,
    RegionSnapshot,
    frac,
    overlapping_pairs,
    piece_pairs,
    rect,
    sqrt_lower,
    sqrt_upper,
)
from planarpi.intgeom import orient

Point = tuple[Fraction, Fraction]


def boxes_overlap(a, b) -> bool:
    """Closed bounding boxes (x0, y0, x1, y1) meet."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dot(ax, ay, bx, by) -> Fraction:
    return ax * bx + ay * by


def _edges(poly: ConvexPoly) -> list[tuple[Point, Point]]:
    v = poly.vertices
    if len(v) == 1:
        return []
    if len(v) == 2:
        return [(v[0], v[1])]
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


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
    return all(_cross(a, b, p) >= 0 for a, b in _edges(poly))


def _project(vertices, ax: Fraction, ay: Fraction) -> tuple[Fraction, Fraction]:
    vals = [_dot(ax, ay, x, y) for x, y in vertices]
    return min(vals), max(vals)


def _sat_axes(poly: ConvexPoly) -> list[tuple[Fraction, Fraction]]:
    axes = []
    for (ax_, ay_), (bx, by) in _edges(poly):
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
    va, vb = a.vertices, b.vertices  # made on each read, so read once
    for axis in _sat_axes(a) + _sat_axes(b):
        lo_a, hi_a = _project(va, *axis)
        lo_b, hi_b = _project(vb, *axis)
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


# -- the Fraction kernel -------------------------------------------------------
# The halfplane kernel as it was computed on `Fraction` coordinates, kept as
# the differential reference for the integer kernel.  Pieces are read through
# `ConvexPoly.vertices` and made with the general `ConvexPoly` constructor.


def _lerp(a: Point, b: Point, t: Fraction) -> Point:
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def clip_halfplane(poly: ConvexPoly, nx, ny, c) -> Optional[ConvexPoly]:
    """Part of poly with nx*x + ny*y <= c (exact Sutherland-Hodgman).

    Points and segments go through the same loop: a segment is the closed
    path a -> b -> a, so its one cut point is met twice.
    """
    nx, ny, c = frac(nx), frac(ny), frac(c)
    verts = poly.vertices
    vals = [nx * x + ny * y - c for x, y in verts]
    if all(v <= 0 for v in vals):
        return poly
    if all(v > 0 for v in vals):
        return None
    out: list[Point] = []
    n = len(verts)
    for i in range(n):
        a, va = verts[i], vals[i]
        b, vb = verts[(i + 1) % n], vals[(i + 1) % n]
        if va <= 0:
            out.append(a)
        if (va < 0 < vb) or (vb < 0 < va):
            out.append(_lerp(a, b, va / (va - vb)))
    return ConvexPoly(out)


def _halfplanes(piece: ConvexPoly):
    """Halfplanes nx*x + ny*y <= c whose intersection is the closed piece.

    A polygon gives its inward edge planes.  A segment gives both sides of
    its line (its edges a -> b and b -> a) and its two end caps.  A point
    gives its four axis planes.
    """
    v = piece.vertices
    n = len(v)
    if n == 1:
        x, y = v[0]
        yield from ((1, 0, x), (-1, 0, -x), (0, 1, y), (0, -1, -y))
        return
    for i in range(n):
        (ax, ay), (bx, by) = v[i], v[(i + 1) % n]
        # interior is to the left of a->b: cross((b-a),(p-a)) >= 0
        nx, ny = by - ay, ax - bx
        yield nx, ny, nx * ax + ny * ay
    if n == 2:
        (ax, ay), (bx, by) = v
        dx, dy = bx - ax, by - ay
        yield -dx, -dy, -(dx * ax + dy * ay)
        yield dx, dy, dx * bx + dy * by


def contains_point(piece: ConvexPoly, p) -> bool:
    x, y = frac(p[0]), frac(p[1])
    return all(nx * x + ny * y <= c for nx, ny, c in _halfplanes(piece))


def convex_intersection(a: ConvexPoly, b: ConvexPoly) -> Optional[ConvexPoly]:
    """Exact intersection of two convex pieces (may be degenerate), or None:
    the lower-dimensional piece clipped by the other's halfplanes."""
    if a.dim() > b.dim():
        a, b = b, a
    piece: Optional[ConvexPoly] = a
    for nx, ny, c in _halfplanes(b):
        piece = clip_halfplane(piece, nx, ny, c)
        if piece is None:
            return None
    return piece


def polys_intersect(a: ConvexPoly, b: ConvexPoly) -> bool:
    """Exact closed-set intersection test for convex pieces."""
    return boxes_overlap(a.bbox(), b.bbox()) and convex_intersection(a, b) is not None


def convex_difference(a: ConvexPoly, b: ConvexPoly) -> list[ConvexPoly]:
    """Closure of a minus b as convex pieces; b must be 2-dimensional.

    Fan decomposition: outside-parts of successive edge halfplanes of b.
    Degenerate remainders are kept; callers filter as needed.
    """
    if b.dim() < 2:
        return [a]
    remainder = a
    out: list[ConvexPoly] = []
    for nx, ny, c in _halfplanes(b):
        outside = clip_halfplane(remainder, -nx, -ny, -c)
        if outside is not None:
            out.append(outside)
        inside = clip_halfplane(remainder, nx, ny, c)
        if inside is None:
            return out
        remainder = inside
    return out


def chart_interval(seg: ConvexPoly, piece: ConvexPoly) -> tuple[Fraction, Fraction]:
    """Parameter interval, along seg from its first vertex (0) to its last
    (1), of a piece lying on seg's line."""
    a, b = seg.vertices
    dx, dy = b[0] - a[0], b[1] - a[1]
    denom = dx * dx + dy * dy
    ts = [((x - a[0]) * dx + (y - a[1]) * dy) / denom for x, y in piece.vertices]
    return min(ts), max(ts)


def region_covers(cover: Sequence[ConvexPoly], target: Sequence[ConvexPoly]):
    """Exact containment: union(target) subseteq union(cover).

    Returns (True, None) or (False, witness_piece) where the witness is an
    uncovered convex remainder.  Sound for closed finite unions: interior
    coverage of 2-D pieces suffices, so degenerate slivers of 2-D remainders
    are dropped.
    """
    # a cover piece whose bbox misses the target's misses every remainder
    near: list[list[int]] = [[] for _ in target]
    for i, j in overlapping_pairs([c.bbox() for c in cover], [t.bbox() for t in target]):
        near[j].append(i)
    for t, idx in zip(target, near):
        near_cover = [cover[i] for i in sorted(idx)]
        if t.dim() == 2:
            work = [t]
            for c in near_cover:
                if c.dim() < 2:
                    continue
                cb = c.bbox()
                nxt: list[ConvexPoly] = []
                for w in work:
                    if not boxes_overlap(w.bbox(), cb):
                        nxt.append(w)
                        continue
                    nxt.extend(p for p in convex_difference(w, c) if p.dim() == 2)
                work = nxt
                if not work:
                    break
            if work:
                return False, work[0]
        elif t.dim() == 1:
            intervals = []
            for c in near_cover:
                inter = convex_intersection(t, c)
                if inter is not None:
                    intervals.append(chart_interval(t, inter))
            intervals.sort()
            reach = Fraction(0)
            for lo, hi in intervals:
                if lo > reach:
                    break
                reach = max(reach, hi)
            if reach < 1:
                a, b = t.vertices
                return False, ConvexPoly([_lerp(a, b, reach), b])
        else:
            p = t.vertices[0]
            if not any(contains_point(c, p) for c in near_cover):
                return False, t
    return True, None


def _point_segment_sq(p: Point, a: Point, b: Point) -> Fraction:
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0:
        return apx * apx + apy * apy
    t = (apx * abx + apy * aby) / denom
    t = max(Fraction(0), min(Fraction(1), t))
    dx = apx - t * abx
    dy = apy - t * aby
    return dx * dx + dy * dy


def squared_distance(a: ConvexPoly, b: ConvexPoly) -> Fraction:
    """Exact squared Euclidean min-distance; zero iff the polys intersect."""
    if polys_intersect(a, b):
        return Fraction(0)
    # the nearest pair of points has a vertex of one piece at one end; a
    # point piece is its own (zero-length) edge
    return min(
        _point_segment_sq(v, e0, e1)
        for src, dst in ((a, b), (b, a))
        for e0, e1 in _edges(dst) or [dst.vertices * 2]
        for v in src.vertices
    )


def _box_gap_sq(a, b) -> Fraction:
    """Squared distance between two closed boxes."""
    dx = max(a[0] - b[2], Fraction(0), b[0] - a[2])
    dy = max(a[1] - b[3], Fraction(0), b[1] - a[3])
    return dx * dx + dy * dy


def _min_sq_to_region(p: Point, pieces: Sequence[ConvexPoly], boxes, order, gaps) -> Fraction:
    """Squared distance from p to the union of pieces.  `order` lists piece
    indices by `gaps`, lower bounds of the squared distance from p to each."""
    pt = ConvexPoly([p])
    best: Optional[Fraction] = None
    for i in order:
        if best is not None:
            if gaps[i] >= best:
                break  # sorted order: nothing later can improve
            if _box_gap_sq((*p, *p), boxes[i]) >= best:
                continue
        d = squared_distance(pt, pieces[i])
        if best is None or d < best:
            best = d
            if best == 0:
                return best
    return best


def _max_sq_vertex(piece: ConvexPoly, other: ConvexPoly) -> Fraction:
    # max over x in piece of dist(x, other) is attained at a vertex
    best = Fraction(0)
    for v in piece.vertices:
        d = squared_distance(ConvexPoly([v]), other)
        if d > best:
            best = d
    return best


def _split_piece(piece: ConvexPoly) -> list[ConvexPoly]:
    x0, y0, x1, y1 = piece.bbox()
    if x1 - x0 >= y1 - y0:
        mid = (x0 + x1) / 2
        lo = clip_halfplane(piece, 1, 0, mid)
        hi = clip_halfplane(piece, -1, 0, -mid)
    else:
        mid = (y0 + y1) / 2
        lo = clip_halfplane(piece, 0, 1, mid)
        hi = clip_halfplane(piece, 0, -1, -mid)
    return [p for p in (lo, hi) if p is not None]


def directed_sq_bounds(
    src: Sequence[ConvexPoly], dst: Sequence[ConvexPoly], tol: Fraction, prec: int
) -> tuple[Fraction, Fraction]:
    """Squared-domain enclosure of sup_{x in src} dist(x, dst)."""
    dst_boxes = [d.bbox() for d in dst]

    def bounds(piece: ConvexPoly) -> tuple[Fraction, Fraction]:
        # the gap between the boxes bounds from below the distance from any
        # point of piece to a target, so targets are visited nearest first
        # and farther ones prune away
        box = piece.bbox()
        gaps = [_box_gap_sq(box, b) for b in dst_boxes]
        order = sorted(range(len(dst)), key=gaps.__getitem__)
        lb = max(_min_sq_to_region(v, dst, dst_boxes, order, gaps) for v in piece.vertices)
        # min over targets of the vertex-max distance
        ub: Optional[Fraction] = None
        for i in order:
            if ub is not None and gaps[i] >= ub:
                break  # sorted order: nothing later can improve
            val = _max_sq_vertex(piece, dst[i])
            if ub is None or val < ub:
                ub = val
                if ub == lb:
                    break
        return lb, ub

    items = [(piece, *bounds(piece)) for piece in src]
    global_lb = max(lb for _, lb, _ in items)
    while True:
        global_hi = max(ub for _, _, ub in items)
        if sqrt_upper(global_hi, prec) - sqrt_lower(global_lb, prec) <= tol:
            return global_lb, global_hi
        # refine the piece holding the largest upper bound
        idx = max(range(len(items)), key=lambda i: items[i][2])
        piece, lb, ub = items.pop(idx)
        if lb == ub:
            # bounds already tight (e.g. a point piece); freeze it
            items.append((piece, lb, ub))
            global_lb = max(global_lb, lb)
            continue
        halves = _split_piece(piece)
        if not halves:
            items.append((piece, ub, ub))
            global_lb = max(global_lb, ub)
            continue
        for h in halves:
            hlb, hub = bounds(h)
            global_lb = max(global_lb, hlb)
            items.append((h, hlb, min(hub, ub)))


# -- the touch decision ---------------------------------------------------------
# `fanq.check_touch` as it decided on merged `Fraction` chart parameters, kept
# as the differential reference for its decision by `region_covers`.  As
# before, pieces are met through the integer kernel's `convex_intersection`.


def _params_on_chart(chart: ConvexPoly, pieces: Sequence[ConvexPoly], clip: ConvexPoly):
    """Pieces cut to the segment `clip`, as merged parameter intervals on the
    line through `chart` (both segments must be collinear)."""
    intervals = []
    for piece in pieces:
        inter = geom.convex_intersection(piece, clip)
        if inter is not None:
            intervals.append(chart_interval(chart, inter))
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def check_touch(z0: BlockRecord, z1: BlockRecord, d: Direction, graph: BlockGraph, t: int) -> bool:
    """Exact test of the three touch conditions at stage-t bodies."""
    if not any(e.dst == z0.id for e in graph.touches):
        return False  # (2) z0 not yet reached
    if any(e.src == z1.id and e.dst == z0.id for e in graph.touches):
        return False  # (3) reverse touch exists
    e0 = _edge_segment(z0.box, d)
    e1 = _edge_segment(z1.box, d.reverse())
    if e0.dim() != 1 or e1.dim() != 1 or not _collinear(e0, e1):
        return False
    body0 = graph.body(z0, t)
    body1 = graph.body(z1, t)
    a, b = e0.hverts
    shared: list[ConvexPoly] = []
    for i, j in piece_pairs(body0, body1):
        inter = geom.convex_intersection(body0[i], body1[j])
        if inter is None:
            continue
        if inter.dim() == 2 or any(orient(a, b, v) != 0 for v in inter.hverts):
            return False  # bodies meet away from the touch line
        shared.append(inter)
    s_edge0 = _params_on_chart(e0, body0, e0)
    s_edge1 = _params_on_chart(e0, body1, e1)
    s_shared = _params_on_chart(e0, shared, e0)
    return bool(s_edge0) and s_edge0 == s_edge1 == s_shared


# -- the limit function ---------------------------------------------------------


def brute_force_limit_f(fam: SequenceFamily, e: int, stage: int, bound: int) -> int:
    """Reference maximal-state search: scan every y and compare bit tuples."""
    states = [(e_state(fam, e, y, stage), -y) for y in range(bound + 1)]
    best = max(states)
    return -best[1]


# -- tree survival: the recursive closure -------------------------------------
# `TreePresentation` as it decided survival before it read one closed set of
# removed strings per stage, without its memo.  It reads only the schedule
# and the prune horizon.


def survives(tree, sigma: str, stage: int) -> bool:
    """Not pruned before `stage` by a prefix, and, below the prune horizon,
    not both children covered."""

    def covered(sigma: str) -> bool:
        if any(u < stage and sigma.startswith(tau) for tau, u in tree.prune):
            return True
        return len(sigma) < tree.max_prune_len and covered(sigma + "0") and covered(sigma + "1")

    return not covered(check_bits(sigma))


def is_empty(tree, stage: int) -> bool:
    return not survives(tree, "", stage)


def leftmost_path(tree, stage: int, depth: int) -> str:
    """Lexicographically least surviving string of the given length."""
    if is_empty(tree, stage):
        raise ValueError("empty tree has no leftmost path")
    sigma = ""
    for _ in range(depth):
        if survives(tree, sigma + "0", stage):
            sigma += "0"
        elif survives(tree, sigma + "1", stage):
            sigma += "1"
        else:  # cannot happen: coverage closure removes dead ends
            raise AssertionError("dead end in pruned tree")
    return sigma


def check_symmetric(tree, depth: int) -> bool:
    """`fanq._check_symmetric` as a loop over every length and stage."""
    for length in range(depth + 1):
        for stage in range(depth + 2):
            lvl = level(tree, length, stage)
            if sorted(cantor.flip_bits(s) for s in lvl) != lvl:
                return False
    return True


def symmetrize(tree) -> cantor.TreePresentation:
    """`cantor.symmetrize` as a test of every string up to `max_prune_len`
    and its mirror at every stage up to `final_stage + 1`."""
    max_len = tree.max_prune_len
    horizon = tree.final_stage + 1
    entries = []
    for length in range(max_len + 1):
        for sigma in cantor.all_strings(length):
            flipped = cantor.flip_bits(sigma)
            stage = None
            for s in range(horizon + 1):
                if not tree.survives(sigma, s) and not tree.survives(flipped, s):
                    stage = s - 1
                    break
            if stage is None:
                continue
            # skip if the parent is already scheduled at the same or earlier stage
            entries.append((sigma, stage))
    minimal = []
    for sigma, stage in entries:
        dominated = any(
            sigma != tau and sigma.startswith(tau) and u <= stage for tau, u in entries
        )
        if not dominated:
            minimal.append((sigma, stage))
    return cantor.TreePresentation(minimal)


# -- fat Cantor levels: every string tested, four Fractions per interval -------


def level(tree, length: int, stage: int) -> list[str]:
    """Surviving strings of the given length, lexicographically sorted."""
    work = [""]
    for _ in range(length):
        nxt = []
        for sigma in work:
            for b in BITS:
                if survives(tree, sigma + b, stage):
                    nxt.append(sigma + b)
        work = nxt
    if length == 0:
        work = [s for s in work if survives(tree, s, stage)]
    return sorted(work)


def cantor_coord(sigma: str) -> Fraction:
    """Left endpoint (un-padded) of sigma's middle-thirds level interval."""
    check_bits(sigma)
    k = len(sigma)
    return Fraction(3**k + int("0" + sigma.replace("1", "2"), 3), 3 ** (k + 1))


def fat_level(tree, s: int) -> FatCantorLevel:
    """Level-s intervals J(sigma) = [pi - eps, pi + 3^-(s+1) + eps], eps = 3^-(s+2);
    computed afresh on every call, with no cache."""
    strings = level(tree, s, s)
    if not strings:
        raise ValueError(f"tree level {s} is empty")
    eps = pad_eps(s)
    width = Fraction(1, 3 ** (s + 1))
    intervals = []
    for sigma in strings:
        left = cantor_coord(sigma)
        intervals.append((left - eps, left + width + eps))
    return FatCantorLevel(stage=s, intervals=tuple(intervals))


def normalize_level(frame: FatCantorLevel, lvl: FatCantorLevel) -> list[Point]:
    """Stage-t fat level `lvl` rescaled by the stage-s frame onto [0, 1]."""
    span = frame.r_plus - frame.l_minus
    return [((lo - frame.l_minus) / span, (hi - frame.l_minus) / span) for lo, hi in lvl.intervals]


# -- fan block bodies: levels onto [0, 1] in Fractions, then through the box ---
# `regions` and `fanq` as they built bodies and frames before the bodies moved
# to integer bands: the level rescaled onto [0, 1], every band scaled back
# into the box, corners clipped by `Fraction` halfplanes through the public
# `geom.clip_halfplane`, frames solved from six `Fraction` coefficients.

CORNER_DELTAS = {
    "ll": ((1, 0), (0, 1)),
    "ur": ((0, 1), (1, 0)),
    "lr": ((0, 0), (1, 1)),
    "ul": ((1, 1), (0, 0)),
}


def delta_halfplane(i: int, j: int, a, b, q, r):
    """The triangle as a halfplane nx*x + ny*y <= c over the box."""
    a, b, q, r = frac(a), frac(b), frac(q), frac(r)
    sx = 1 if i == 0 else -1
    sy = 1 if j == 0 else -1
    ax = a if i == 0 else a + q
    ay = b if j == 0 else b + r
    nx = sx * r
    ny = sy * q
    c = q * r + nx * ax + ny * ay
    return nx, ny, c


def _interval_pieces(intervals, horizontal: bool, a, b, q, r) -> list[ConvexPoly]:
    (a, b, q, r, *ends), d = geom.to_ints(a, b, q, r, *(v for iv in intervals for v in iv))
    pieces = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        if horizontal:
            pieces.append(geom.box_piece(a * d, b * d + r * lo, (a + q) * d, b * d + r * hi, d * d))
        else:
            pieces.append(geom.box_piece(a * d + q * lo, b * d, a * d + q * hi, (b + r) * d, d * d))
    return pieces


def v_region(symbol: str, intervals, a, b, q, r) -> list[ConvexPoly]:
    """Scaled copies of a subset of [0,1] laid through a box."""
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
    out: list[ConvexPoly] = []
    for horizontal, (di, dj) in zip((True, False), CORNER_DELTAS[symbol]):
        plane = delta_halfplane(di, dj, a, b, q, r)
        for piece in _interval_pieces(ivs, horizontal, a, b, q, r):
            clipped = geom.clip_halfplane(piece, *plane)
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


def body_at(block: BlockRecord, levels: Sequence[FatCantorLevel], t: int) -> list[ConvexPoly]:
    """The block's stage-t body from `levels[s]`, the fat level of each stage s."""
    x0, x1, y0, y1 = block.box
    if block.kind == "end-box":
        return [rect(x0, y0, x1, y1)]
    fm = levels[block.frame_stage]
    bands = normalize_level(fm, levels[t])
    if block.kind == "straight":
        return v_region("-" if block.axis == 0 else "|", bands, x0, y0, x1 - x0, y1 - y0)
    fx0, fx1 = block.fx.img_interval(fm.l_minus, fm.r_plus)
    fy0, fy1 = block.fy.img_interval(fm.l_minus, fm.r_plus)
    box = rect(x0, y0, x1, y1)
    out = []
    for piece in v_region(block.symbol, bands, fx0, fy0, fx1 - fx0, fy1 - fy0):
        piece = geom.convex_intersection(piece, box)
        if piece is not None:
            out.append(piece)
    return out


# -- fat trees: Fraction points through the hull constructor, placed after -----


def _fat_edge_pieces(edges, leaves, w: Fraction) -> list[ConvexPoly]:
    """Two shifted copies per edge plus a cap joining the copies at each leaf."""
    pieces = []
    for sigma in edges:
        pa = plot_point(sigma[:-1])
        pb = plot_point(sigma)
        off_a = Fraction(1, 3 ** (len(sigma) - 1)) * w
        off_b = Fraction(1, 3 ** len(sigma)) * w
        for sign in (-1, 1):
            pieces.append(
                ConvexPoly([(pa[0] + sign * off_a, pa[1]), (pb[0] + sign * off_b, pb[1])])
            )
    if w != 0:
        for sigma in leaves:
            p = plot_point(sigma)
            off = Fraction(1, 3 ** len(sigma)) * w
            pieces.append(ConvexPoly([(p[0] - off, p[1]), (p[0] + off, p[1])]))
    return pieces


def fat_tree(tree, w, stage: int, depth: int) -> RegionSnapshot:
    edges = _tree_edges(tree, stage, depth)
    return RegionSnapshot(stage, _fat_edge_pieces(edges, tree.level(depth, stage), Fraction(w)))


def _place(p: Point, c: Fraction, t: int, q: Fraction) -> Point:
    return (c + q * (p[0] - Fraction(1, 2)), (2 - p[1]) / (1 << (t + 1)))


def _placed(pieces, c: Fraction, t: int, q: Fraction) -> list[ConvexPoly]:
    return [ConvexPoly([_place(v, c, t, q) for v in piece.vertices]) for piece in pieces]


def placed_fat_tree(tree, w, c, t: int, q, stage: int, depth: int) -> RegionSnapshot:
    base = fat_tree(tree, w, stage, depth)
    return RegionSnapshot(stage, _placed(base.pieces, Fraction(c), t, Fraction(q)))


def build_dendrite_h(stage: int, script, tree) -> RegionSnapshot:
    if is_empty(tree, stage):
        raise ValueError("empty tree presentation")
    depth = max(stage, 1)
    pieces: list[ConvexPoly] = []
    gaps = []
    for t in range(stage + 1):
        x = Fraction(1, 1 << t)
        w = rising_width(script, t)
        q = Fraction(1, 1 << (t + 2))
        w_tree = w * (1 << (t + 2))
        pieces.extend(_rising(x, w, Fraction(1, 1 << (t + 1)), cap=False))
        gaps.append((x - w, x + w))
        st = stage_function(script, t)
        if st is None:
            edges, leaves = _tree_edges(tree, stage, depth), tree.level(depth, stage)
        else:
            path = leftmost_path(tree, st, depth)
            edges, leaves = [path[: k + 1] for k in range(len(path))], [path] if path else []
        pieces.extend(_placed(_fat_edge_pieces(edges, leaves, w_tree), x, t, q))
    pieces.extend(_base_pieces(gaps))
    return RegionSnapshot(stage, pieces)


# -- ball polygons: Fraction points through the hull constructor ----------------


def unit_circle_points(k: int) -> list[Point]:
    """`balls._unit_circle_points` as `Fraction` points on the unit circle."""
    if not 0 <= k <= 6:
        raise ValueError(f"ball polygons have 1 to 64 vertices, got 2^{k}")
    pts: list[Point] = []
    for j in range(0, 64, 1 << (6 - k)):
        if balls._TAN_TABLE[j] is None:
            pts.append((Fraction(-1), Fraction(0)))
            continue
        t = Fraction(balls._TAN_TABLE[j], 1 << 16)
        d = 1 + t * t
        pts.append(((1 - t * t) / d, 2 * t / d))
    return pts


def ball_polygon(ball, k: int = 6) -> ConvexPoly:
    r = ball.radius
    if ball.kind == "open":
        r = r * (Fraction(1) - Fraction(1, 1 << 20))
    cx, cy = ball.center
    return ConvexPoly([(cx + r * ux, cy + r * uy) for ux, uy in unit_circle_points(k)])


# -- one implementation per idea: the second implementations it replaced --------
# Each is kept as it was, as the differential reference for the path that
# replaced it: the integer distance with its own edge loop, the Cantor
# endpoints by interval splitting, the plot point from `cantor_coord`, the
# plotted tree from its own segments with a root-point fallback, the probe
# balls with their depth loop through point pieces, and the Hausdorff
# refinement that freezes a piece whose bounds meet, with its lower and upper
# bounds from two separate nearest-first searches on integer distances.


def int_squared_distance(a: ConvexPoly, b: ConvexPoly) -> Fraction:
    """Exact squared Euclidean min-distance; zero iff the polys intersect."""
    if geom.polys_intersect(a, b):
        return Fraction(0)
    # the nearest pair of points has a vertex of one piece at one end
    best = None
    for src, dst in ((a, b), (b, a)):
        for e0, e1 in geom._edges(dst):
            for p in src.hverts:
                n, d = geom._point_segment_sq(p, e0, e1)
                if best is None or n * best[1] < best[0] * d:
                    best = n, d
    return Fraction(*best)


def cantor_endpoints(level: int) -> list[Fraction]:
    """Endpoints of the level-`level` middle-thirds intervals, sorted."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        nxt = []
        for lo, hi in intervals:
            third = (hi - lo) / 3
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        intervals = nxt
    pts: set[Fraction] = set()
    for lo, hi in intervals:
        pts.add(lo)
        pts.add(hi)
    return sorted(pts)


def subtree_x_base(tau: str) -> Fraction:
    """Sum of 2 * 3^-(i+1) over the 1-bits: the left end of tau's subtree."""
    return 3 * cantor.cantor_coord(tau) - 1


def base_plot_point(sigma: str) -> tuple[Fraction, Fraction]:
    """Planar vertex of a binary string: root (1/2, 1), level k at y = 2^-k."""
    check_bits(sigma)
    k = len(sigma)
    return (Fraction(1, 2 * 3**k) + subtree_x_base(sigma), Fraction(1, 1 << k))


def plotted_tree(tree, stage: int, depth: int) -> RegionSnapshot:
    """Edge set between surviving strings of length <= depth."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pieces = [
        geom.segment(base_plot_point(sigma[:-1]), base_plot_point(sigma))
        for sigma in _tree_edges(tree, stage, depth)
    ]
    if not pieces:
        pieces = [geom.point(*base_plot_point(""))] if survives(tree, "", stage) else []
    return RegionSnapshot(stage, pieces)


def _full_tree_edges_near(
    x_lo: Fraction, x_hi: Fraction, y_lo: Fraction, max_depth: int
) -> list[tuple[str, ConvexPoly]]:
    """Full-tree edges whose subtree window can reach [x_lo,x_hi] x [y_lo, 1]."""
    out = []
    stack = [""]
    while stack:
        tau = stack.pop()
        if tau:
            out.append((tau, geom.segment(base_plot_point(tau[:-1]), base_plot_point(tau))))
        if len(tau) >= max_depth:
            continue
        if Fraction(1, 1 << len(tau)) < y_lo:
            continue  # every deeper edge lies below the window
        px = base_plot_point(tau)[0]
        for b in ("1", "0"):
            child = tau + b
            base = subtree_x_base(child)
            lo = min(base, px)
            hi = max(base + Fraction(1, 3 ** len(child)), px)
            if lo <= x_hi and hi >= x_lo:
                stack.append(child)
    return out


def probe_balls(sigma: str):
    """Negative and positive probe balls of a string."""
    check_bits(sigma)
    r_minus = min(Fraction(1, 1 << (len(sigma) + 2)), Fraction(1, 3 ** (len(sigma) + 1)))
    minus = balls.BallSpec(base_plot_point(sigma), r_minus, kind="open")
    if not sigma:
        return minus, None
    a = base_plot_point(sigma[:-1])
    b = base_plot_point(sigma)
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    mid_piece = geom.point(*mid)
    own = geom.segment(a, b)
    result = None
    for k in range(len(sigma), len(sigma) + 40):
        r = Fraction(1, 1 << k)
        if mid[1] - r <= 0:
            continue
        # edges entirely below y = mid_y - r cannot reach the ball
        depth = 1
        while Fraction(1, 1 << (depth - 1)) >= mid[1] - r and depth < k + 60:
            depth += 1
        ok = True
        for tau, edge in _full_tree_edges_near(mid[0] - r, mid[0] + r, mid[1] - r, depth):
            if edge == own:
                continue
            if int_squared_distance(mid_piece, edge) < r * r:
                ok = False
                break
        if ok:
            result = balls.BallSpec(mid, r, kind="open")
            break
    if result is None:
        raise AssertionError("no admissible positive ball radius found")
    return minus, result


def recover_tree(presentation, stage: int, depth: int) -> tuple[tuple[str, ...], bool]:
    """(strings, region_empty): the strings whose positive ball meets the
    stage snapshot, plus the root."""
    pieces = presentation.snapshot(stage).pieces
    strings = [format(i, f"0{n}b") for n in range(1, depth + 1) for i in range(1 << n)]
    probes = [probe_balls(sigma)[1] for sigma in strings]
    ball_boxes = []
    for ball in probes:
        (x, y), r = ball.center, ball.radius
        ball_boxes.append((x - r, y - r, x + r, y + r))
    met: set[int] = set()
    for i, j in overlapping_pairs(ball_boxes, [p.bbox() for p in pieces]):
        ball = probes[i]
        centre = geom.point(*ball.center)
        if i not in met and int_squared_distance(centre, pieces[j]) < ball.radius**2:
            met.add(i)
    hits = tuple(strings[i] for i in sorted(met))
    return ("",) + hits, not met


def _int_min_sq_to_region(
    p, pieces: Sequence[ConvexPoly], boxes, order, gaps, gd: int
) -> Fraction:
    """Squared distance from p to the union of pieces.  `order` lists piece
    indices by `gaps`: each gap over `gd` bounds from below the squared
    distance from p to its piece."""
    pbox = (p[0], p[1], p[0], p[1], p[2])
    n, m = None, 1  # the best (numerator, denominator) so far
    for i in order:
        if n is not None:
            if gaps[i] * m >= n * gd:
                break  # sorted order: nothing later can improve
            if geom._box_gap_sq(pbox, boxes[i]) * m >= n * (p[2] * boxes[i][4]) ** 2:
                continue
        dn, dm = geom._point_sq(p, pieces[i])
        if n is None or dn * m < n * dm:
            n, m = dn, dm
            if n == 0:
                break
    return Fraction(n, m)


def _int_max_sq_vertex(piece: ConvexPoly, other: ConvexPoly) -> Fraction:
    # max over x in piece of dist(x, other) is attained at a vertex
    n, m = 0, 1
    for v in piece.hverts:
        dn, dm = geom._point_sq(v, other)
        if dn * m > n * dm:
            n, m = dn, dm
    return Fraction(n, m)


def int_directed_sq_bounds(
    src: Sequence[ConvexPoly], dst: Sequence[ConvexPoly], tol: Fraction, prec: int
) -> tuple[Fraction, Fraction]:
    """Squared-domain enclosure of sup_{x in src} dist(x, dst)."""
    dd = lcm(*(p._ibox()[4] for p in dst))
    dst_boxes = [(*(v * (dd // b[4]) for v in b[:4]), dd) for b in (p._ibox() for p in dst)]

    def bounds(piece: ConvexPoly) -> tuple[Fraction, Fraction]:
        box = piece._ibox()
        gd = (box[4] * dd) ** 2
        gaps = [geom._box_gap_sq(box, b) for b in dst_boxes]
        order = sorted(range(len(dst)), key=gaps.__getitem__)
        lb = max(_int_min_sq_to_region(v, dst, dst_boxes, order, gaps, gd) for v in piece.hverts)
        ub: Optional[Fraction] = None
        for i in order:
            if ub is not None and gaps[i] * ub.denominator >= ub.numerator * gd:
                break  # sorted order: nothing later can improve
            val = _int_max_sq_vertex(piece, dst[i])
            if ub is None or val < ub:
                ub = val
                if ub == lb:
                    break
        return lb, ub

    items = [(piece, *bounds(piece)) for piece in src]
    global_lb = max(lb for _, lb, _ in items)
    while True:
        global_hi = max(ub for _, _, ub in items)
        if sqrt_upper(global_hi, prec) - sqrt_lower(global_lb, prec) <= tol:
            return global_lb, global_hi
        # refine the piece holding the largest upper bound
        idx = max(range(len(items)), key=lambda i: items[i][2])
        piece, lb, ub = items.pop(idx)
        if lb == ub:
            # bounds already tight (e.g. a point piece); freeze it
            items.append((piece, lb, ub))
            global_lb = max(global_lb, lb)
            continue
        for h in geom._split_piece(piece):
            hlb, hub = bounds(h)
            global_lb = max(global_lb, hlb)
            items.append((h, hlb, min(hub, ub)))


# -- the fan builder as it was: threaded predecessors and stage guards ---------


class AffineFrame(fanq.AffineFrame):
    """A frame whose interval image is sorted, as when a frame's scale was
    not known to be positive."""

    def img_interval(self, lo, hi) -> tuple[Fraction, Fraction]:
        a, b = self.img(lo), self.img(hi)
        return (a, b) if a <= b else (b, a)


def reframe(base: AffineFrame, lo, hi, m: FatCantorLevel) -> AffineFrame:
    """`fanq.reframe`, making the frame above."""
    scale = base.scale * (hi - lo) / (m.r_plus - m.l_minus)
    return AffineFrame(base.img(lo) - scale * m.l_minus, scale)


def frame_onto(x0: Fraction, x1: Fraction, m: FatCantorLevel) -> AffineFrame:
    return reframe(AffineFrame(Fraction(0), Fraction(1)), x0, x1, m)


class DestinationTrack(fanq.DestinationTrack):
    """The track with its endpoints summed as `Fraction`s and its range
    guard."""

    def gamma(self, step: int) -> tuple[Fraction, Fraction]:
        if step < 0 or step > self.final_stage:
            raise ValueError("step outside the scripted range")
        if step == 0:
            return fanq.ONE_THIRD, fanq.TWO_THIRDS
        members = self.elements[:step]
        n_s = members[-1]
        rho_min = sum((2 * Fraction(1, 3 ** (i + 1)) for i in members), Fraction(0))
        rho_max = sum(
            (2 * Fraction(1, 3 ** (i + 1)) for i in members if i < n_s), Fraction(0)
        ) + Fraction(1, 3**n_s)
        gmin = fanq.ONE_THIRD + rho_min / 3
        gmax = fanq.ONE_THIRD + rho_max / 3
        if not (fanq.ONE_THIRD <= gmin <= gmax <= fanq.TWO_THIRDS):
            raise ValueError("destination track left [1/3, 2/3]")
        return gmin, gmax


class FanBuilder:
    """`fanq._Builder` before the snake grew at its head."""

    def __init__(self, tree: TreePresentation, track: DestinationTrack):
        self.track = track
        self.graph = BlockGraph(tree)

    def _chain(
        self,
        prev: Optional[BlockRecord],
        created: int,
        frame_stage: int,
        kind: str,
        d_in: Direction,
        box,
        d_out: Optional[Direction] = None,
        **frames,
    ) -> BlockRecord:
        """Append the next block of the snake, entered from `prev` (None for
        the first block) by a touch along d_in."""
        if kind == "corner":  # the frame's image of the stage's ambient square
            m = cantor.fat_level(self.graph.tree, frame_stage)
            fx, fy = frames["fx"], frames["fy"]
            (x0, x1, y0, y1), d = geom.to_ints(*fx.img_interval(m.l_minus, m.r_plus),
                                               *fy.img_interval(m.l_minus, m.r_plus))
        else:
            (x0, x1, y0, y1), d = geom.to_ints(*box)
        block = BlockRecord(
            id=len(self.graph.blocks),
            creation_stage=created,
            kind=kind,
            d_in=d_in,
            d_out=d_in if d_out is None else d_out,
            frame_stage=frame_stage,
            box=box,
            band_box=(x0, y0, x1, y1, d),
            **frames,
        )
        self.graph.blocks.append(block)
        self.graph.touches.append(fanq.TouchEdge(None if prev is None else prev.id, block.id, d_in))
        return block

    def _end_box(self, created: int, frame_stage: int, box) -> None:
        self.graph.end_boxes.append(
            BlockRecord(
                id=-1,
                creation_stage=created,
                kind="end-box",
                d_in=None,
                d_out=None,
                frame_stage=frame_stage,
                box=box,
            )
        )

    # -- stage 0 ------------------------------------------------------------

    def stage_zero(self):
        m = cantor.fat_level(self.graph.tree, 0)
        gmin, gmax = self.track.gamma(0)
        frame = AffineFrame(Fraction(0), Fraction(1))
        box = (gmin, gmax, m.l_minus, m.r_plus)
        self.active = self._chain(None, 0, 0, "straight", LEFT, box, axis=0, fy=frame)
        self._end_box(0, 0, (gmin - fanq.ONE_THIRD, gmin, m.l_minus, m.r_plus))
        self.active_frame = frame
        self.zeta = fanq.ONE_THIRD
        self.gammas = [(gmin, gmax)]

    # -- retrace ------------------------------------------------------------

    def _straight_return(self, host: BlockRecord, m: FatCantorLevel, s: int, prev):
        d = host.d_in.reverse()
        cross = host.fy if host.axis == 0 else host.fx
        lo, hi = fanq._corridor(d, m)
        k = 2 - 2 * host.axis  # the cross axis's slot in the box
        box = host.box[:k] + cross.img_interval(lo, hi) + host.box[k + 2 :]
        frame = {"fy" if host.axis == 0 else "fx": reframe(cross, lo, hi, m)}
        return self._chain(prev, s + 1, s, "straight", d, box, axis=host.axis, host_id=host.id,
                           **frame)

    def _corner_return(self, host: BlockRecord, m: FatCantorLevel, s: int, prev):
        entry_dir = host.d_out.reverse()
        exit_dir = host.d_in.reverse()
        d_vert = entry_dir if entry_dir.axis == 1 else exit_dir
        d_horiz = entry_dir if entry_dir.axis == 0 else exit_dir
        x_corr = fanq._corridor(d_vert, m)
        y_corr = fanq._corridor(d_horiz, m)
        fx_chunk = reframe(host.fx, *x_corr, m)
        fy_chunk = reframe(host.fy, *y_corr, m)
        chunk_box = host.fx.img_interval(*x_corr) + host.fy.img_interval(*y_corr)

        def leg(prev: BlockRecord, d: Direction, before_chunk: bool) -> BlockRecord:
            # a leg spans from the host's low edge to the chunk when it
            # travels up or right into the chunk, or down or left out of it
            k = 2 * d.axis
            (h0, h1), (c0, c1) = host.box[k : k + 2], chunk_box[k : k + 2]
            span = (h0, c0) if before_chunk == (d.sense == 1) else (c1, h1)
            box = chunk_box[:k] + span + chunk_box[k + 2 :]
            frame = {"fy": fy_chunk} if d.axis == 0 else {"fx": fx_chunk}
            return self._chain(prev, s + 1, s, "straight", d, box, axis=d.axis, host_id=host.id,
                               **frame)

        entry = leg(prev, entry_dir, before_chunk=True)
        chunk = self._chain(entry, s + 1, s, "corner", entry_dir, chunk_box, d_out=exit_dir,
                            symbol=host.symbol, fx=fx_chunk, fy=fy_chunk, host_id=host.id)
        return leg(chunk, exit_dir, before_chunk=False)

    # -- one stage step -------------------------------------------------------

    def step(self, s: int):
        m = cantor.fat_level(self.graph.tree, s)
        gmin_s, gmax_s = self.gammas[s]
        gmin_n, gmax_n = self.track.gamma(s + 1)
        self.gammas.append((gmin_n, gmax_n))
        injured = not (gmin_s <= gmin_n and gmax_n <= gmax_s)
        y_frame = self.active_frame
        x_end = (gmin_s - self.zeta, gmin_s)
        endbox_fx = frame_onto(*x_end, m)

        z0 = self._chain(self.active, s + 1, s, "corner", LEFT,
                         x_end + (y_frame.img(m.l_minus), y_frame.img(m.r_star)), d_out=UP,
                         symbol="ll", fx=endbox_fx, fy=y_frame)
        prev = self._chain(z0, s + 1, s, "corner", UP,
                           x_end + (y_frame.img(m.r_star), y_frame.img(m.r_plus)), d_out=RIGHT,
                           symbol="ul", fx=endbox_fx, fy=reframe(y_frame, m.r_star, m.r_plus, m))

        if injured:
            if gmin_n <= gmax_s:
                raise ValueError("injured destination intervals must be disjoint")
            p = None
            for cand in range(s, -1, -1):
                g0, g1 = self.gammas[cand]
                if g0 <= gmin_n and gmax_n <= g1:
                    p = cand
                    break
            assert p is not None  # stage 0 spans [1/3, 2/3]
            hosts = [b for b in self.graph.blocks if p < b.creation_stage <= s]
            for host in reversed(hosts):
                if host.kind == "straight":
                    prev = self._straight_return(host, m, s, prev)
                else:
                    prev = self._corner_return(host, m, s, prev)
            base_block = next(
                b
                for b in reversed(self.graph.blocks)
                if b.creation_stage == p and b.kind == "straight" and b.axis == 0
            )
            base_frame = base_block.fy
            gmin_host, gmax_host = self.gammas[p]
        else:
            base_frame = y_frame
            gmin_host, gmax_host = gmin_s, gmax_s

        ystar = reframe(base_frame, m.r_star, m.r_plus, m)
        z2 = self._chain(prev, s + 1, s, "straight", RIGHT,
                         (gmin_host, gmax_n, base_frame.img(m.r_star), base_frame.img(m.r_plus)),
                         axis=0, fy=ystar)

        zeta_star = (gmax_host - gmax_n) / (3**s)
        if zeta_star <= 0:
            raise ValueError("destination max must strictly shrink inside a frame")
        x34 = (gmax_n, gmax_n + zeta_star)
        fx34 = frame_onto(*x34, m)
        ystarstar = reframe(ystar, m.r_star, m.r_plus, m)
        z3 = self._chain(z2, s + 1, s, "corner", RIGHT,
                         x34 + (ystar.img(m.l_minus), ystar.img(m.r_star)), d_out=UP,
                         symbol="lr", fx=fx34, fy=ystar)
        z4 = self._chain(z3, s + 1, s, "corner", UP,
                         x34 + (ystar.img(m.r_star), ystar.img(m.r_plus)), d_out=LEFT,
                         symbol="ur", fx=fx34, fy=ystarstar)
        y_band = (ystarstar.img(m.l_minus), ystarstar.img(m.r_plus))
        self.active = self._chain(z4, s + 1, s, "straight", LEFT, (gmin_n, gmax_n) + y_band,
                                  axis=0, fy=ystarstar)
        zeta_ss = (gmin_n - gmin_host) / (3**s)
        if zeta_ss <= 0:
            raise ValueError("destination min must strictly grow")
        self._end_box(s + 1, s, (gmin_n - zeta_ss, gmin_n) + y_band)
        self.active_frame = ystarstar
        self.zeta = zeta_ss


def fan_replay(stage: int, tree, track: DestinationTrack) -> BlockGraph:
    """`fanq._replay` on the builder above; give it the track above."""
    if stage > track.final_stage:
        raise ValueError("stage exceeds the scripted destination track")
    if is_empty(tree, stage + 1):
        raise ValueError("empty tree presentation")
    if not check_symmetric(tree, stage):
        raise ValueError("tree presentation must be symmetric")
    builder = FanBuilder(tree, track)
    builder.stage_zero()
    for s in range(stage):
        builder.step(s)
    return builder.graph
