"""Exact rational planar geometry kernel.

Everything here works on `fractions.Fraction` coordinates; no floats enter
any predicate.  Regions are finite unions of convex polygons which may
degenerate to segments or points.  Distances are never emitted as scalars,
only as rational enclosures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Sequence

Frac = Fraction
Point = tuple[Fraction, Fraction]

FRAME = (Fraction(-2), Fraction(-2), Fraction(2), Fraction(2))


def frac(value) -> Fraction:
    """Parse a rational from int, Fraction, or a lowest-terms 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not a rational: {value!r}")


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def boxes_overlap(a, b) -> bool:
    """Closed bounding boxes (x0, y0, x1, y1) meet."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def overlapping_pairs(boxes, others=None) -> list[tuple[int, int]]:
    """Index pairs of closed boxes that meet, by sweep and prune along x.

    Without `others`: the pairs (i, j), i < j, of boxes that meet.  With
    `others`: the pairs (i, j) where boxes[i] meets others[j].  Boxes that
    only touch meet.
    """
    cross = others is not None
    sides = (boxes, others) if cross else (boxes,)
    order = sorted((box[0], s, i) for s, side in enumerate(sides) for i, box in enumerate(side))
    active: list[list[int]] = [[] for _ in sides]
    pairs: list[tuple[int, int]] = []
    for x0, s, i in order:
        _, y0, _, y1 = sides[s][i]
        o = 1 - s if cross else s  # the side this box pairs with
        alive = []
        for k in active[o]:
            box = sides[o][k]
            if box[2] < x0:
                continue  # ends left of every box still to come
            alive.append(k)
            if not (box[3] < y0 or y1 < box[1]):
                if cross:
                    pairs.append((k, i) if s else (i, k))
                else:
                    pairs.append((k, i) if k < i else (i, k))
        active[o] = alive
        active[s].append(i)
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


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Andrew monotone chain; exact.  Collinear inputs collapse to 1-2 points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:
        return [min(pts), max(pts)]
    return hull


class ConvexPoly:
    """A convex polygon in counterclockwise order; may be a segment or point.

    Vertices are canonicalized: convex hull, no redundant collinear vertices,
    rotation so the lexicographically least vertex comes first.
    """

    __slots__ = ("vertices", "_bbox")

    def __init__(self, points: Iterable) -> None:
        pts = [(frac(x), frac(y)) for x, y in points]
        if not pts:
            raise ValueError("empty polygon")
        hull = convex_hull(pts)
        if len(hull) > 2:
            k = hull.index(min(hull))
            hull = hull[k:] + hull[:k]
        self.vertices: tuple[Point, ...] = tuple(hull)
        self._bbox = None  # filled by the first bbox() call

    # -- basic queries ----------------------------------------------------

    def dim(self) -> int:
        return min(len(self.vertices) - 1, 2)

    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if self._bbox is None:
            xs = [p[0] for p in self.vertices]
            ys = [p[1] for p in self.vertices]
            self._bbox = (min(xs), min(ys), max(xs), max(ys))
        return self._bbox

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        if len(v) == 1:
            return []
        if len(v) == 2:
            return [(v[0], v[1])]
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def contains_point(self, p) -> bool:
        x, y = frac(p[0]), frac(p[1])
        return all(nx * x + ny * y <= c for nx, ny, c in _halfplanes(self))

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPoly) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        coords = ", ".join(f"({frac_str(x)},{frac_str(y)})" for x, y in self.vertices)
        return f"ConvexPoly[{coords}]"


def rect(x0, y0, x1, y1) -> ConvexPoly:
    x0, y0, x1, y1 = frac(x0), frac(y0), frac(x1), frac(y1)
    return ConvexPoly([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def segment(a, b) -> ConvexPoly:
    return ConvexPoly([a, b])


def point(x, y) -> ConvexPoly:
    return ConvexPoly([(x, y)])


# -- intersection / distance ---------------------------------------------


def polys_intersect(a: ConvexPoly, b: ConvexPoly) -> bool:
    """Exact closed-set intersection test for convex pieces."""
    return boxes_overlap(a.bbox(), b.bbox()) and convex_intersection(a, b) is not None


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
        for e0, e1 in dst.edges() or [dst.vertices * 2]
        for v in src.vertices
    )


# -- snapshots -------------------------------------------------------------


def _poly_sort_key(p: ConvexPoly):
    return (len(p.vertices), p.vertices)


class RegionSnapshot:
    """Stage-s view of a planar co-c.e. set: a canonical union of convex polys."""

    __slots__ = ("stage", "pieces", "frame")

    def __init__(self, stage: int, pieces: Iterable[ConvexPoly], frame=FRAME) -> None:
        self.stage = int(stage)
        self.frame = tuple(frac(v) for v in frame)
        uniq = sorted(set(pieces), key=_poly_sort_key)
        fx0, fy0, fx1, fy1 = self.frame
        for p in uniq:
            x0, y0, x1, y1 = p.bbox()
            if x0 < fx0 or y0 < fy0 or x1 > fx1 or y1 > fy1:
                raise ValueError(f"piece outside frame: {p!r}")
        self.pieces: tuple[ConvexPoly, ...] = tuple(uniq)

    def is_empty(self) -> bool:
        return not self.pieces

    def __repr__(self) -> str:
        return f"RegionSnapshot(stage={self.stage}, pieces={len(self.pieces)})"

    def to_json(self) -> dict:
        fx0, fy0, fx1, fy1 = self.frame
        return {
            "stage": self.stage,
            "frame": [[frac_str(fx0), frac_str(fy0)], [frac_str(fx1), frac_str(fy1)]],
            "pieces": [
                {"verts": [[frac_str(x), frac_str(y)] for x, y in p.vertices]}
                for p in self.pieces
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "RegionSnapshot":
        frame_pts = doc["frame"]
        frame = (
            frac(frame_pts[0][0]),
            frac(frame_pts[0][1]),
            frac(frame_pts[1][0]),
            frac(frame_pts[1][1]),
        )
        pieces = [ConvexPoly(p["verts"]) for p in doc["pieces"]]
        return RegionSnapshot(doc["stage"], pieces, frame)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"), sort_keys=True)


def connectivity_components(region: RegionSnapshot) -> list[list[int]]:
    """Partition of piece indices: chains of pairwise-intersecting closed pieces."""
    pieces = region.pieces
    part = UnionFind(len(pieces))
    for i, j in overlapping_pairs([p.bbox() for p in pieces]):
        if part.find(i) != part.find(j) and polys_intersect(pieces[i], pieces[j]):
            part.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(len(pieces)):
        groups.setdefault(part.find(i), []).append(i)
    return sorted(groups.values())


# -- convex clipping / difference ------------------------------------------


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
            if not any(c.contains_point(p) for c in near_cover):
                return False, t
    return True, None


def region_contains(big: RegionSnapshot, small: RegionSnapshot) -> bool:
    ok, _ = region_covers(big.pieces, small.pieces)
    return ok


def regions_equal(a: RegionSnapshot, b: RegionSnapshot) -> bool:
    return region_contains(a, b) and region_contains(b, a)


# -- balls ------------------------------------------------------------------


@dataclass(frozen=True)
class BallSpec:
    """Euclidean ball with rational center/radius; kind 'open' or 'closed'."""

    center: Point
    radius: Fraction
    kind: str = "closed"

    def __post_init__(self):
        object.__setattr__(
            self, "center", (frac(self.center[0]), frac(self.center[1]))
        )
        object.__setattr__(self, "radius", frac(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if self.kind not in ("open", "closed"):
            raise ValueError("ball kind must be open or closed")


def _unit_circle_points(n: int) -> list[Point]:
    """n rational points on the unit circle, roughly evenly spaced.

    Tangent-half-angle parametrization keeps every vertex exactly on the
    circle, so the polygon they span is inscribed in the disk.
    """
    pts: list[Point] = []
    for j in range(n):
        half = math.pi * j / n
        if abs(half - math.pi / 2) < 1e-9:
            pts.append((Fraction(-1), Fraction(0)))
            continue
        t = Fraction(round(math.tan(half) * (1 << 16)), 1 << 16)
        d = 1 + t * t
        pts.append(((1 - t * t) / d, 2 * t / d))
    return pts


def ball_polygon(ball: BallSpec, k: int = 6) -> ConvexPoly:
    """Inscribed 2^k-gon with rational vertices on (or within) the circle.

    For open balls the radius is shrunk by 2^-20 so the polygon is a subset
    of the open ball as well.
    """
    r = ball.radius
    if ball.kind == "open":
        r = r * (Fraction(1) - Fraction(1, 1 << 20))
    cx, cy = ball.center
    return ConvexPoly([(cx + r * ux, cy + r * uy) for ux, uy in _unit_circle_points(1 << k)])


def subtract_piece(piece: ConvexPoly, poly: ConvexPoly) -> list[ConvexPoly]:
    """Closure of one piece minus a convex poly, as convex pieces."""
    if piece.dim() == 2:
        return convex_difference(piece, poly)
    inter = convex_intersection(piece, poly)
    if inter is None:
        return [piece]
    if piece.dim() == 0:
        return []
    if inter.dim() == 0 and poly.dim() < 2:
        return [piece]  # a point or a crossing segment removes no length
    a, b = piece.vertices
    lo, hi = chart_interval(piece, inter)
    out = []
    if lo > 0:
        out.append(ConvexPoly([a, _lerp(a, b, lo)]))
    if hi < 1:
        out.append(ConvexPoly([_lerp(a, b, hi), b]))
    return out


def subtract_poly(region: RegionSnapshot, poly: ConvexPoly) -> RegionSnapshot:
    out: list[ConvexPoly] = []
    pb = poly.bbox()
    for piece in region.pieces:
        if boxes_overlap(piece.bbox(), pb):
            out.extend(subtract_piece(piece, poly))
        else:
            out.append(piece)
    return RegionSnapshot(region.stage, out, region.frame)


def subtract_ball(region: RegionSnapshot, ball: BallSpec, k: int = 6) -> RegionSnapshot:
    """Snapshot covering region minus ball (removed polygon is inside the ball)."""
    return subtract_poly(region, ball_polygon(ball, k))


# -- co-c.e. presentations ---------------------------------------------------


@dataclass(frozen=True)
class Removal:
    stage: int
    shape: object  # BallSpec or ConvexPoly (axis-aligned box)


class CoCePresentation:
    """Closed set presented by a replayable schedule of removed basic sets.

    The stage-s snapshot depends only on removals with stage < s.  The
    declared final stage bounds the scripted behaviour; beyond it nothing
    further is removed.
    """

    def __init__(self, removals: Sequence[Removal], frame=FRAME, final_stage: Optional[int] = None):
        self.removals = tuple(sorted(removals, key=lambda r: r.stage))
        self.frame = tuple(frac(v) for v in frame)
        if final_stage is None:
            final_stage = max((r.stage + 1 for r in self.removals), default=0)
        self.final_stage = final_stage
        self._cache: dict[int, RegionSnapshot] = {}

    def snapshot(self, stage: int) -> RegionSnapshot:
        stage = min(stage, self.final_stage)
        if stage in self._cache:
            return self._cache[stage]
        fx0, fy0, fx1, fy1 = self.frame
        region = RegionSnapshot(stage, [rect(fx0, fy0, fx1, fy1)], self.frame)
        for r in self.removals:
            if r.stage < stage:
                if isinstance(r.shape, BallSpec):
                    region = subtract_ball(region, r.shape)
                else:
                    region = subtract_poly(region, r.shape)
        region = RegionSnapshot(stage, region.pieces, self.frame)
        self._cache[stage] = region
        return region


def probe_ball_empty(presentation, ball: BallSpec, stage: int) -> str:
    """'certified-empty' | 'hit' | 'unknown' against a stage snapshot.

    certified-empty is the c.e. event: the stage snapshot misses the closed
    ball.  hit additionally requires the intersection to survive to the
    declared final stage.
    """
    if ball.kind != "closed":
        raise ValueError("probe balls must be closed")
    ball_piece = point(*ball.center)
    r2 = ball.radius * ball.radius

    def disjoint(snapshot: RegionSnapshot) -> bool:
        return all(
            squared_distance(ball_piece, piece) > r2 for piece in snapshot.pieces
        )

    if disjoint(presentation.snapshot(stage)):
        return "certified-empty"
    if not disjoint(presentation.snapshot(presentation.final_stage)):
        return "hit"
    return "unknown"


# -- certified Hausdorff distance -------------------------------------------


@dataclass(frozen=True)
class DistanceEnclosure:
    """Rational interval certified to contain a Euclidean Hausdorff distance."""

    low: Fraction
    high: Fraction

    def width(self) -> Fraction:
        return self.high - self.low

    def __repr__(self) -> str:
        return f"[{frac_str(self.low)}, {frac_str(self.high)}]"


def sqrt_lower(q: Fraction, prec: int) -> Fraction:
    """Rational lower bound for sqrt(q), within 2^-prec."""
    if q < 0:
        raise ValueError("negative radicand")
    s = 1 << prec
    return Fraction(isqrt((q.numerator * s * s) // q.denominator), s)


def sqrt_upper(q: Fraction, prec: int) -> Fraction:
    if q < 0:
        raise ValueError("negative radicand")
    s = 1 << prec
    m = -((-q.numerator * s * s) // q.denominator)  # ceil
    r = isqrt(m)
    if r * r < m:
        r += 1
    return Fraction(r, s)


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


def _directed_sq_bounds(
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


def hausdorff_enclosure(
    a: RegionSnapshot, b: RegionSnapshot, tol_exp: int
) -> DistanceEnclosure:
    """Enclosure of width <= 2^-tol_exp around d_H(a, b), by adaptive
    subdivision.  A directed distance is exactly 0, and is not bounded, when
    `region_covers` proves its source lies inside its target."""
    if a.is_empty() or b.is_empty():
        raise ValueError("undefined distance to empty set")
    tol = Fraction(1, 1 << tol_exp)
    prec = tol_exp + 4
    half = tol / 2

    def directed(src: RegionSnapshot, dst: RegionSnapshot) -> tuple[Fraction, Fraction]:
        if region_covers(dst.pieces, src.pieces)[0]:
            return Fraction(0), Fraction(0)  # src inside dst: exactly 0
        return _directed_sq_bounds(src.pieces, dst.pieces, half, prec)

    lo1, hi1 = directed(a, b)
    lo2, hi2 = directed(b, a)
    low = max(sqrt_lower(lo1, prec), sqrt_lower(lo2, prec))
    high = max(sqrt_upper(hi1, prec), sqrt_upper(hi2, prec))
    return DistanceEnclosure(low=max(Fraction(0), low), high=high)
