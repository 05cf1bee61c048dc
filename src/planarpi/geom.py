"""Exact rational planar geometry kernel on integers.

Regions are finite unions of convex polygons which may degenerate to
segments or points.  A piece keeps its vertices as homogeneous integer
triples (X, Y, W), each the point (X/W, Y/W), with one W > 0 per piece: the
least common denominator of its coordinates (`planarpi.intgeom`).
Halfplane signs, clips, convex differences, containment, box tests, the
order along a segment and squared distances all run on Python ints; no
float enters the kernel.  A chain of clips runs on raw vertex paths (`_cut`)
and is made canonical once per result; `polys_intersect` makes no piece.
Every distance is `_point_sq`, from a homogeneous point to a piece, as an
integer (numerator, denominator) pair; Hausdorff bounds and ball probes
compare these, and no probe makes a point piece.

Rationals (ints, `fractions.Fraction`s or lowest-terms 'p/q' strings) are
converted once, when a piece or a frame is made.  Fractions are made only
where a value leaves the kernel: `ConvexPoly.vertices`, `bbox()`, the Scene
JSON, `squared_distance` (for tests and API callers) and one per Hausdorff
bound.  Distances are never emitted as scalars, only as rational enclosures.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from . import Record
from .intgeom import (
    Hom,
    UnionFind,
    canonical,
    convex_hull,
    orient,
    overlapping_pairs,
    reduced,
    scaled,
)

Point = tuple[Fraction, Fraction]

FRAME = (Fraction(-2), Fraction(-2), Fraction(2), Fraction(2))


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def frac(value) -> Fraction:
    """Parse a rational from int, Fraction, or a lowest-terms 'p/q' string.

    A bool is not a number here, and a string must be ASCII digits with an
    optional sign and denominator: no decimal point, exponent or spaces.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"not a rational 'p/q' string: {value!r}")
        num, _, den = value.partition("/")
        if den and not int(den):
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(int(num), int(den or 1))
    raise TypeError(f"not a rational: {value!r}")


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def to_ints(*values) -> tuple[list[int], int]:
    """Rationals as integers over their least common denominator d, and d."""
    qs = [frac(v) for v in values]
    d = lcm(*(q.denominator for q in qs))
    return [q.numerator if q.denominator == d else q.numerator * (d // q.denominator)
            for q in qs], d


class ConvexPoly:
    """A convex polygon in counterclockwise order; may be a segment or point.

    `hverts` holds the vertices as homogeneous ints (X, Y, W) over one W,
    the least common denominator of the piece's coordinates, so that
    vertices share their ints.  They are canonicalized: no repeated or
    redundant collinear vertex, a segment's ends in (x, y) order, a polygon
    rotated so that its (x, y)-least vertex comes first.  The constructor
    takes rational points in any order and runs a hull; `_convex` takes
    vertices already in convex counterclockwise order and runs none.
    """

    __slots__ = ("hverts", "_box")

    def __init__(self, points: Iterable) -> None:
        coords, d = to_ints(*(v for x, y in points for v in (x, y)))
        if not coords:
            raise ValueError("empty polygon")
        hull = convex_hull(list(zip(coords[::2], coords[1::2])))
        self.hverts: tuple[Hom, ...] = canonical(hull, d)
        self._box = None  # filled by the first _ibox() call

    @classmethod
    def _convex(cls, verts: Sequence[Hom]) -> "ConvexPoly":
        """The piece of homogeneous vertices in convex counterclockwise order
        (a clip chain's raw path, a ball polygon's vertices); repeated and
        collinear vertices are dropped and the list is rotated, with no hull."""
        vs = [v for i, v in enumerate(verts) if v != verts[i - 1]] or [verts[0]]
        n = len(vs)
        turns = [v for i, v in enumerate(vs) if n > 2 and orient(vs[i - 1], v, vs[(i + 1) % n])]
        pts, d = scaled(turns or vs)
        if turns:
            k = pts.index(min(pts))
            pts = pts[k:] + pts[:k]
        elif n > 1:  # collinear: its two extreme points
            pts = [min(pts), max(pts)]
        poly = cls.__new__(cls)
        poly.hverts = canonical(pts, d)
        poly._box = None
        return poly

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as `Fraction` pairs, made on each read."""
        return tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in self.hverts)

    def dim(self) -> int:
        return min(len(self.hverts) - 1, 2)

    def _ibox(self) -> tuple[int, int, int, int, int]:
        """(x0, y0, x1, y1, d): the bounding box [x0/d, x1/d] x [y0/d, y1/d]."""
        if self._box is None:
            h = self.hverts
            xs, ys = [v[0] for v in h], [v[1] for v in h]
            self._box = (min(xs), min(ys), max(xs), max(ys), h[0][2])
        return self._box

    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        x0, y0, x1, y1, d = self._ibox()
        return Fraction(x0, d), Fraction(y0, d), Fraction(x1, d), Fraction(y1, d)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPoly) and self.hverts == other.hverts

    def __hash__(self) -> int:
        return hash(self.hverts)

    def __repr__(self) -> str:
        coords = ", ".join(f"({frac_str(x)},{frac_str(y)})" for x, y in self.vertices)
        return f"ConvexPoly[{coords}]"


def rect(x0, y0, x1, y1) -> ConvexPoly:
    (x0, y0, x1, y1), d = to_ints(x0, y0, x1, y1)
    return box_piece(x0, y0, x1, y1, d)


def box_piece(x0: int, y0: int, x1: int, y1: int, d: int) -> ConvexPoly:
    """rect(x0/d, y0/d, x1/d, y1/d) from integers, d > 0."""
    g = gcd(x0, y0, x1, y1, d)
    if g > 1:  # reduced once, so that the corners share their ints
        x0, y0, x1, y1, d = x0 // g, y0 // g, x1 // g, y1 // g, d // g
    x0, x1 = min(x0, x1), max(x0, x1)
    y0, y1 = min(y0, y1), max(y0, y1)
    corners = [(x0, y0, d), (x1, y0, d), (x1, y1, d), (x0, y1, d)]
    if x0 == x1 or y0 == y1:
        return ConvexPoly._convex(corners)
    # already canonical: reduced, counterclockwise, the least corner first
    poly = ConvexPoly.__new__(ConvexPoly)
    poly.hverts = tuple(corners)
    poly._box = (x0, y0, x1, y1, d)
    return poly


def segment(a, b) -> ConvexPoly:
    (ax, ay, bx, by), d = to_ints(*a, *b)
    return ConvexPoly._convex([(ax, ay, d), (bx, by, d)])


# -- boxes -------------------------------------------------------------------


def bboxes_meet(p: ConvexPoly, q: ConvexPoly) -> bool:
    """The closed bounding boxes of pieces p and q meet."""
    ax0, ay0, ax1, ay1, ad = p._ibox()
    bx0, by0, bx1, by1, bd = q._ibox()
    return not (
        ax1 * bd < bx0 * ad or bx1 * ad < ax0 * bd or ay1 * bd < by0 * ad or by1 * ad < ay0 * bd
    )


def piece_pairs(pieces: Sequence[ConvexPoly], others=None) -> list[tuple[int, int]]:
    """`overlapping_pairs` of the pieces' (and others') bounding boxes."""
    boxes = [p._ibox() for p in pieces]
    return overlapping_pairs(boxes, None if others is None else [p._ibox() for p in others])


# -- intersection / distance ---------------------------------------------


def polys_intersect(a: ConvexPoly, b: ConvexPoly) -> bool:
    """Exact closed-set intersection test for convex pieces; makes no piece."""
    return bboxes_meet(a, b) and _cut_chain(a, b)[1] is not None


def _point_segment_sq(p: Hom, a: Hom, b: Hom) -> tuple[int, int]:
    """Squared distance from p to the segment ab, as (numerator, denominator)."""
    x, y, w = p
    ax, ay, aw = a
    ux, uy = x * aw - ax * w, y * aw - ay * w  # (p - a) * w * aw
    if a != b:
        bx, by, bw = b
        vx, vy = bx * aw - ax * bw, by * aw - ay * bw  # (b - a) * aw * bw
        dot = ux * vx + uy * vy
        if dot > 0:
            vv = vx * vx + vy * vy
            if dot * bw < w * vv:  # the foot lies strictly inside ab
                cross = ux * vy - uy * vx
                return cross * cross, (w * aw) ** 2 * vv
            ux, uy, aw = x * bw - bx * w, y * bw - by * w, bw  # nearest to b
    return ux * ux + uy * uy, (w * aw) ** 2


def _edges(piece: ConvexPoly) -> list[tuple[Hom, Hom]]:
    """The piece's edges; a point piece is its own zero-length edge."""
    v = piece.hverts
    return [(v[i - 1], v[i]) for i in range(len(v))] if len(v) > 2 else [(v[0], v[-1])]


def _point_sq(p: Hom, piece: ConvexPoly) -> tuple[int, int]:
    """Squared distance from p to the closed piece, as (numerator,
    denominator): 0 inside, else the least over the piece's `_edges`."""
    if _inside(piece, p):
        return 0, 1
    best = None
    for e0, e1 in _edges(piece):
        n, d = _point_segment_sq(p, e0, e1)
        if best is None or n * best[1] < best[0] * d:
            best = n, d
    return best


def squared_distance(a: ConvexPoly, b: ConvexPoly) -> Fraction:
    """Exact squared Euclidean min-distance; zero iff the polys intersect."""
    if polys_intersect(a, b):
        return Fraction(0)
    # the nearest pair of points has a vertex of one piece at one end
    return min(Fraction(*_point_sq(p, dst)) for src, dst in ((a, b), (b, a)) for p in src.hverts)


# -- snapshots -------------------------------------------------------------


class RegionSnapshot:
    """Stage-s view of a planar co-c.e. set: a canonical union of convex polys.

    Pieces are sorted by vertex count, then by their vertex lists in (x, y)
    order, compared as integers over the snapshot's common denominator.
    """

    __slots__ = ("stage", "pieces", "frame", "_graph")

    def __init__(self, stage: int, pieces: Iterable[ConvexPoly], frame=FRAME) -> None:
        self.stage = int(stage)
        self.frame = tuple(frac(v) for v in frame)
        uniq = list(set(pieces))
        (fx0, fy0, fx1, fy1), e = to_ints(*self.frame)
        for p in uniq:
            x0, y0, x1, y1, w = p._ibox()
            if x0 * e < fx0 * w or y0 * e < fy0 * w or x1 * e > fx1 * w or y1 * e > fy1 * w:
                raise ValueError(f"piece outside frame: {p!r}")
        d = lcm(*(p.hverts[0][2] for p in uniq))

        def key(p: ConvexPoly):
            h = p.hverts
            f = d // h[0][2]
            return (len(h), *[c * f for x, y, _ in h for c in (x, y)])

        self.pieces: tuple[ConvexPoly, ...] = tuple(sorted(uniq, key=key))
        self._graph: Optional[PieceGraph] = None  # filled by the first graph() call

    def graph(self) -> "PieceGraph":
        """The pieces' exact intersection graph, built on first use."""
        if self._graph is None:
            self._graph = PieceGraph(self.pieces)
        return self._graph

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


class PieceGraph:
    """The exact intersection graph of a snapshot's pieces, the one place
    where box pairs become intersection edges.  `RegionSnapshot.graph()`
    builds it once, and connectivity and every cut probe read it."""

    __slots__ = ("pieces", "neighbours")

    def __init__(self, pieces: Sequence[ConvexPoly]) -> None:
        self.pieces = pieces
        self.neighbours: list[list[int]] = [[] for _ in pieces]
        for i, j in piece_pairs(pieces):
            if polys_intersect(pieces[i], pieces[j]):
                self.neighbours[i].append(j)
                self.neighbours[j].append(i)

    def components(self, shape: Optional[ConvexPoly] = None) -> list[list[int]]:
        """The components of the pieces, or of the pieces minus a shape, as
        sorted lists of nodes in sorted order.  Node i < len(pieces) is piece
        i, and later nodes are the fragments of the cut pieces, those whose
        bbox meets the shape; a cut piece is no node.  A fragment of piece i
        lies in it, so it can only meet the neighbours of i, their fragments
        and its siblings: only those pairs are tested again."""
        nodes = list(self.pieces)
        fragments: dict[int, range] = {}  # cut piece -> its fragment nodes
        for i, piece in enumerate(self.pieces):
            if shape is not None and bboxes_meet(piece, shape):
                rest = subtract_piece(piece, shape)
                fragments[i] = range(len(nodes), len(nodes) + len(rest))
                nodes.extend(rest)
        part = UnionFind(len(nodes))

        def join(u: int, v: int) -> None:
            if part.find(u) != part.find(v) and polys_intersect(nodes[u], nodes[v]):
                part.union(u, v)

        for i in range(len(self.pieces)):
            if i not in fragments:
                for j in self.neighbours[i]:
                    if j > i and j not in fragments:
                        part.union(i, j)
        for i, frags in fragments.items():
            for a, u in enumerate(frags):
                for v in frags[a + 1:]:
                    join(u, v)
                for j in self.neighbours[i]:
                    if j not in fragments:
                        join(u, j)
                    elif j > i:
                        for v in fragments[j]:
                            join(u, v)
        groups: dict[int, list[int]] = {}
        for u in range(len(nodes)):
            if u not in fragments:
                groups.setdefault(part.find(u), []).append(u)
        return sorted(groups.values())


def connectivity_components(region: RegionSnapshot) -> list[list[int]]:
    """Partition of piece indices: chains of pairwise-intersecting closed pieces."""
    return region.graph().components()


# -- convex clipping / difference ------------------------------------------


def _cut(verts: Sequence[Hom], h: Hom) -> Optional[Sequence[Hom]]:
    """Part of the closed convex vertex path in the halfplane h = (a, b, c):
    the points (X, Y, W) with a*X + b*Y + c*W <= 0 (exact Sutherland-Hodgman).

    Returns `verts` itself when it lies inside, None when nothing is left,
    and otherwise the raw cut path, which may repeat vertices or keep
    collinear ones; `ConvexPoly._convex` makes it canonical.  Points and
    segments go through the same loop: a segment is the closed path
    p -> q -> p, so its one cut point is met twice.
    """
    a, b, c = h
    vals = [a * x + b * y + c * w for x, y, w in verts]
    if max(vals) <= 0:
        return verts
    if min(vals) > 0:
        return None
    out: list[Hom] = []
    n = len(verts)
    for i in range(n):
        p, vp = verts[i], vals[i]
        q, vq = verts[(i + 1) % n], vals[(i + 1) % n]
        if vp <= 0:
            out.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            # vq*p - vp*q lies on the line, between p and q
            x, y, w = vq * p[0] - vp * q[0], vq * p[1] - vp * q[1], vq * p[2] - vp * q[2]
            out.append(reduced(x, y, w))
    return out


def _clip(poly: ConvexPoly, h: Hom) -> Optional[ConvexPoly]:
    """Part of poly in the halfplane h, as in `_cut`: poly itself, a new
    canonical piece, or None."""
    verts = _cut(poly.hverts, h)
    if verts is poly.hverts:
        return poly
    return None if verts is None else ConvexPoly._convex(verts)


def clip_halfplane(poly: ConvexPoly, nx, ny, c) -> Optional[ConvexPoly]:
    """Part of poly with nx*x + ny*y <= c, for rationals nx, ny, c."""
    (a, b, c), _ = to_ints(nx, ny, c)
    return _clip(poly, (a, b, -c))


def _halfplanes(piece: ConvexPoly):
    """Integer halfplanes (a, b, c), as in `_clip`, whose intersection is the
    closed piece.

    A polygon gives its inward edge planes.  A segment gives both sides of
    its line (its edges p -> q and q -> p) and its two end caps.  A point
    gives its four axis planes.
    """
    v = piece.hverts
    n = len(v)
    if n == 1:
        x, y, w = v[0]
        yield from ((w, 0, -x), (-w, 0, x), (0, w, -y), (0, -w, y))
        return
    for i in range(n):
        (px, py, pw), (qx, qy, qw) = v[i], v[(i + 1) % n]
        # interior is to the left of p->q: -orient(p, q, r) <= 0
        yield pw * qy - py * qw, px * qw - pw * qx, py * qx - px * qy
    if n == 2:
        (ax, ay, aw), (bx, by, bw) = v
        dx, dy = bx * aw - ax * bw, by * aw - ay * bw  # (b - a) * aw * bw
        yield -dx * aw, -dy * aw, dx * ax + dy * ay  # (r - a).d >= 0
        yield dx * bw, dy * bw, -(dx * bx + dy * by)  # (r - b).d <= 0


def _inside(piece: ConvexPoly, *pts: Hom) -> bool:
    """Every point lies in the closed piece."""
    return all(a * x + b * y + c * w <= 0 for a, b, c in _halfplanes(piece) for x, y, w in pts)


def _cut_chain(a: ConvexPoly, b: ConvexPoly) -> tuple[ConvexPoly, Optional[Sequence[Hom]]]:
    """The lower-dimensional of the two pieces, and its vertex path cut by
    every halfplane of the other (`_cut`): its own `hverts` when untouched,
    None when the pieces are disjoint."""
    if a.dim() > b.dim():
        a, b = b, a
    verts: Optional[Sequence[Hom]] = a.hverts
    for h in _halfplanes(b):
        verts = _cut(verts, h)
        if verts is None:
            break
    return a, verts


def convex_intersection(a: ConvexPoly, b: ConvexPoly) -> Optional[ConvexPoly]:
    """Exact intersection of two convex pieces (may be degenerate), or None:
    the lower-dimensional piece clipped by the other's halfplanes, made
    canonical once at the end."""
    a, verts = _cut_chain(a, b)
    if verts is a.hverts:
        return a
    return None if verts is None else ConvexPoly._convex(verts)


def convex_difference(a: ConvexPoly, b: ConvexPoly) -> list[ConvexPoly]:
    """Closure of a minus b as convex pieces; b must be 2-dimensional.

    Fan decomposition: outside-parts of successive edge halfplanes of b.
    Degenerate remainders are kept; callers filter as needed.
    """
    if b.dim() < 2:
        return [a]
    remainder = a
    out: list[ConvexPoly] = []
    for h0, h1, h2 in _halfplanes(b):
        outside = _clip(remainder, (-h0, -h1, -h2))
        if outside is not None:
            out.append(outside)
        inside = _clip(remainder, (h0, h1, h2))
        if inside is None:
            return out
        remainder = inside
    return out


def region_covers(cover: Sequence[ConvexPoly], target: Sequence[ConvexPoly]):
    """Exact containment: union(target) subseteq union(cover).

    Returns (True, None) or (False, witness_piece) where the witness is an
    uncovered convex remainder.  Sound for closed finite unions: interior
    coverage of 2-D pieces suffices, so degenerate slivers of 2-D remainders
    are dropped.
    """
    # a cover piece whose bbox misses the target's misses every remainder
    near: list[list[int]] = [[] for _ in target]
    for i, j in piece_pairs(cover, target):
        near[j].append(i)
    for t, idx in zip(target, near):
        near_cover = [cover[i] for i in sorted(idx)]
        # a convex target lies in a closed convex piece iff its vertices do
        if any(_inside(c, *t.hverts) for c in near_cover):
            continue
        if t.dim() == 2:
            work = [t]
            for c in near_cover:
                if c.dim() < 2:
                    continue
                nxt: list[ConvexPoly] = []
                for w in work:
                    if not bboxes_meet(w, c):
                        nxt.append(w)
                        continue
                    nxt.extend(p for p in convex_difference(w, c) if p.dim() == 2)
                work = nxt
                if not work:
                    break
            if work:
                return False, work[0]
        elif t.dim() == 1:
            # each meeting is a sub-segment of t with its ends in (x, y)
            # order, which along t is the order from t's first vertex to its
            # last; so ends compare as integer pairs over one denominator
            meets = [m.hverts for c in near_cover if (m := convex_intersection(t, c)) is not None]
            ends, d = scaled([*t.hverts, *(v for m in meets for v in (m[0], m[-1]))])
            reach = ends[0]
            for lo, hi in sorted(zip(ends[2::2], ends[3::2])):
                if lo > reach:
                    break
                reach = max(reach, hi)
            if reach < ends[1]:
                return False, ConvexPoly._convex([(*reach, d), t.hverts[1]])
        else:
            return False, t
    return True, None


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
    # inter is a sub-segment (or point) of the piece; its ends in (x, y)
    # order are the ends nearer to a and to b
    ends = (piece.hverts[0], inter.hverts[0], inter.hverts[-1], piece.hverts[1])
    pts, d = scaled(ends)
    a, lo, hi, b = ((x, y, d) for x, y in pts)
    out = []
    if lo != a:
        out.append(ConvexPoly._convex([a, lo]))
    if hi != b:
        out.append(ConvexPoly._convex([hi, b]))
    return out


def subtract_poly(region: RegionSnapshot, poly: ConvexPoly) -> RegionSnapshot:
    out: list[ConvexPoly] = []
    for piece in region.pieces:
        if bboxes_meet(piece, poly):
            out.extend(subtract_piece(piece, poly))
        else:
            out.append(piece)
    return RegionSnapshot(region.stage, out, region.frame)


# -- certified Hausdorff distance -------------------------------------------


class DistanceEnclosure(Record):
    """Rational interval certified to contain a Euclidean Hausdorff distance."""

    __slots__ = _fields = ("low", "high")

    def __init__(self, low: Fraction, high: Fraction):
        self.low = low
        self.high = high

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


def _box_gap_sq(a, b) -> int:
    """Squared distance between two closed boxes (x0, y0, x1, y1, d), times
    (d_a * d_b)^2."""
    ax0, ay0, ax1, ay1, ad = a
    bx0, by0, bx1, by1, bd = b
    dx = max(ax0 * bd - bx1 * ad, 0, bx0 * ad - ax1 * bd)
    dy = max(ay0 * bd - by1 * ad, 0, by0 * ad - ay1 * bd)
    return dx * dx + dy * dy


def _split_piece(piece: ConvexPoly) -> list[ConvexPoly]:
    """The piece cut in two across the middle of its longer box side."""
    x0, y0, x1, y1, d = piece._ibox()
    if x1 - x0 >= y1 - y0:
        halves = ((2 * d, 0, -(x0 + x1)), (-2 * d, 0, x0 + x1))
    else:
        halves = ((0, 2 * d, -(y0 + y1)), (0, -2 * d, y0 + y1))
    return [p for p in (_clip(piece, h) for h in halves) if p is not None]


def _directed_sq_bounds(
    src: Sequence[ConvexPoly], dst: Sequence[ConvexPoly], tol: Fraction, prec: int
) -> tuple[Fraction, Fraction]:
    """Squared-domain enclosure of sup_{x in src} dist(x, dst)."""
    # the targets' boxes over one denominator dd, so that gaps sort as integers
    dd = lcm(*(p._ibox()[4] for p in dst))
    dst_boxes = [(*(v * (dd // b[4]) for v in b[:4]), dd) for b in (p._ibox() for p in dst)]

    def bounds(piece: ConvexPoly) -> tuple[Fraction, Fraction]:
        # one pass over the targets, nearest box first.  near[k] is the
        # least distance from vertex k to a target, and lb the largest
        # near[k]; ub is the least over targets of the largest vertex
        # distance, since the farthest point of piece from a convex target
        # is a vertex.  Distances are (numerator, denominator) pairs, and
        # (1, 0) is infinity.  A box gap bounds from below the distance from
        # any point of piece to its target, so once a gap reaches ub, which
        # is at least every near[k], no later target lowers either bound
        box = piece._ibox()
        gd = (box[4] * dd) ** 2
        gaps = [_box_gap_sq(box, b) for b in dst_boxes]
        verts = [(v, (v[0], v[1], v[0], v[1], v[2]), (v[2] * dd) ** 2) for v in piece.hverts]
        near = [(1, 0)] * len(verts)
        un, um = 1, 0
        for i in sorted(range(len(dst)), key=gaps.__getitem__):
            if gaps[i] * um >= un * gd:
                break
            target, tbox = dst[i], dst_boxes[i]
            mn, mm = 0, 1  # the largest vertex distance to target so far
            for k, (v, vbox, vd) in enumerate(verts):
                nn, nm = near[k]
                # once the target cannot lower ub, skip a vertex whose
                # point-box gap shows it cannot lower near[k] either
                if mn * um >= un * mm and _box_gap_sq(vbox, tbox) * nm >= nn * vd:
                    continue
                dn, dm = _point_sq(v, target)
                if dn * nm < nn * dm:
                    near[k] = dn, dm
                if dn * mm > mn * dm:
                    mn, mm = dn, dm
            if mn * um < un * mm:
                un, um = mn, mm
        return max(Fraction(*nk) for nk in near), Fraction(un, um)

    items = [(piece, *bounds(piece)) for piece in src]
    global_lb = max(lb for _, lb, _ in items)
    # a heap of (-ub, order made, piece): its top is the earliest made of
    # the pieces with the largest upper bound
    heap = [(-ub, i, piece) for i, (piece, _, ub) in enumerate(items)]
    heapify(heap)
    made = count(len(heap))
    while True:
        global_hi = -heap[0][0]
        if sqrt_upper(global_hi, prec) - sqrt_lower(global_lb, prec) <= tol:
            return global_lb, global_hi
        # refine the top piece.  Its lb < ub: a piece with lb = ub =
        # global_hi <= global_lb would have met the width test above, so a
        # point piece is never split
        neg_ub, _, piece = heappop(heap)
        for h in _split_piece(piece):
            hlb, hub = bounds(h)
            global_lb = max(global_lb, hlb)
            heappush(heap, (max(-hub, neg_ub), next(made), h))


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
    return DistanceEnclosure(low=low, high=high)
