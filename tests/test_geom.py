"""Geometry kernel: exact distances, connectivity, subtraction, enclosures."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import planarpi.balls as balls
import planarpi.geom as geom
from planarpi.balls import BallSpec, ball_polygon
from planarpi.cli import CONSTRUCTIONS, main
from planarpi.geom import (
    ConvexPoly,
    DistanceEnclosure,
    RegionSnapshot,
    clip_halfplane,
    connectivity_components,
    convex_difference,
    convex_intersection,
    hausdorff_enclosure,
    overlapping_pairs,
    polys_intersect,
    rect,
    region_covers,
    segment,
    sqrt_lower,
    sqrt_upper,
    squared_distance,
    subtract_poly,
)

import oracles
from oracles import boxes_overlap, flood_fill_components, raster_covers, sat_intersect

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _interval(pair):
    return min(pair), max(pair)


def int_box(box):
    """A `Fraction` box (x0, y0, x1, y1) as the integer box (x0, y0, x1, y1, d)
    over its own least common denominator, 1, 2 or 4 for a `BOX`."""
    coords, d = geom.to_ints(*box)
    return (*coords, d)


# closed boxes on a coarse dyadic grid, so zero-width boxes, point boxes and
# boxes that only touch are common
BOX = st.tuples(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(_interval),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(_interval),
).map(lambda xy: (F(xy[0][0], 4), F(xy[1][0], 4), F(xy[0][1], 4), F(xy[1][1], 4)))
BOXES = st.lists(BOX, max_size=24)
# a box of zero width or height makes a segment or a point piece
BOX_PIECES = BOX.map(lambda box: rect(*box))
CUT_SHAPES = st.tuples(
    st.integers(-6, 5), st.integers(1, 6), st.integers(-6, 5), st.integers(1, 6)
).map(lambda v: rect(F(v[0], 4), F(v[2], 4), F(v[0] + v[1], 4), F(v[2] + v[3], 4)))


# pieces with dyadic corners: points, segments (any, and axis-aligned) and
# 3-5-gons; pairs of them drawn apart, as boxes, through a common vertex,
# or as segments that are collinear (overlapping, touching at an endpoint or
# apart) or that cross
COORD = st.integers(-8, 8).map(lambda k: F(k, 4))
PT = st.tuples(COORD, COORD)
STEP = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
POLYGONS = st.lists(PT, min_size=3, max_size=5).map(ConvexPoly)
SEGMENTS = st.tuples(PT, PT).filter(lambda ab: ab[0] != ab[1]).map(lambda ab: segment(*ab))
AXIS_SEGMENTS = st.tuples(PT, COORD, st.booleans()).filter(lambda v: v[1] != v[0][v[2]]).map(
    lambda v: segment(v[0], (v[1], v[0][1]) if v[2] == 0 else (v[0][0], v[1]))
)
PIECES = st.one_of(PT.map(lambda p: ConvexPoly([p])), SEGMENTS, AXIS_SEGMENTS, POLYGONS)


def _along(p, d, k):
    return (p[0] + F(k * d[0], 4), p[1] + F(k * d[1], 4))


@st.composite
def collinear_pairs(draw):
    p, d = draw(PT), draw(STEP)
    i0, i1, j0, j1 = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    if draw(st.booleans()):
        j0 = i1  # touch at an endpoint (or overlap, if j1 turns back)
    assume(i0 != i1 and j0 != j1)
    return segment(_along(p, d, i0), _along(p, d, i1)), segment(_along(p, d, j0), _along(p, d, j1))


@st.composite
def crossing_pairs(draw):
    p, d, e = draw(PT), draw(STEP), draw(STEP)
    assume(d[0] * e[1] != d[1] * e[0])
    i, j = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return segment(_along(p, d, -i), _along(p, d, j)), segment(_along(p, e, -j), _along(p, e, i))


# pieces through one common vertex
SHARED_VERTEX_PAIRS = st.tuples(PT, st.lists(PT, max_size=3), st.lists(PT, max_size=3)).map(
    lambda v: (ConvexPoly([v[0], *v[1]]), ConvexPoly([v[0], *v[2]]))
)
PAIRS = st.one_of(
    st.tuples(PIECES, PIECES),
    st.tuples(BOX_PIECES, BOX_PIECES),
    SHARED_VERTEX_PAIRS,
    collinear_pairs(),
    crossing_pairs(),
)
HALFPLANES = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-16, 16)).map(
    lambda v: (v[0], v[1], F(v[2], 8))
)


class TestHalfplaneKernel:
    @settings(max_examples=400, deadline=None)
    @given(PAIRS)
    def test_meeting_matches_separating_axes(self, pair):
        a, b = pair
        meet = sat_intersect(a, b)
        assert polys_intersect(a, b) == meet
        inter = convex_intersection(a, b)
        assert inter == convex_intersection(b, a)
        assert (inter is not None) == meet

    @settings(max_examples=200, deadline=None)
    @given(PAIRS)
    def test_intersection_lies_in_both(self, pair):
        a, b = pair
        inter = convex_intersection(a, b)
        if inter is not None:
            assert all(oracles.contains_point(a, v) and oracles.contains_point(b, v)
                       for v in inter.vertices)

    def test_cases_by_dimension(self):
        square = rect(0, 0, 2, 2)
        assert convex_intersection(square, ConvexPoly([(2, 1)])) == ConvexPoly([(2, 1)])
        assert convex_intersection(ConvexPoly([(3, 1)]), square) is None
        assert convex_intersection(segment((-1, 1), (3, 1)), square) == segment((0, 1), (2, 1))
        assert convex_intersection(segment((0, 0), (2, 0)), segment((1, 0), (3, 0))) == segment(
            (1, 0), (2, 0)
        )
        touch = convex_intersection(segment((0, 0), (1, 0)), segment((1, 0), (3, 0)))
        assert touch == ConvexPoly([(1, 0)])
        assert convex_intersection(segment((0, 0), (1, 0)), segment((0, 1), (1, 1))) is None
        p = ConvexPoly([(1, 0)])
        assert convex_intersection(p, p) == p
        assert convex_intersection(ConvexPoly([(1, 0)]), ConvexPoly([(1, F(1, 4))])) is None


class TestKernelLaws:
    @settings(max_examples=200, deadline=None)
    @given(PIECES, HALFPLANES)
    def test_clip_is_idempotent(self, piece, plane):
        once = clip_halfplane(piece, *plane)
        assert once is None or clip_halfplane(once, *plane) == once

    @settings(max_examples=200, deadline=None)
    @given(PAIRS)
    def test_difference_and_intersection_cover(self, pair):
        a, b = pair
        inter = convex_intersection(a, b)
        cover = convex_difference(a, b) + ([inter] if inter is not None else [])
        assert region_covers(cover, [a])[0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(BOX, max_size=6), BOX, st.integers(-6, 6), st.integers(0, 2))
    def test_covers_matches_raster(self, boxes, target, cut, halves):
        # add none, one or both of the target's halves either side of x = cut/4
        x0, y0, x1, y1 = target
        mid = min(max(F(cut, 4), x0), x1)
        boxes = boxes + [(x0, y0, mid, y1), (mid, y0, x1, y1)][:halves]
        cover = [rect(*box) for box in boxes]
        ok, witness = region_covers(cover, [rect(*target)])
        assert ok == raster_covers(cover, [rect(*target)], 3)
        if not ok:
            assert region_covers([rect(*target)], [witness])[0]


class TestSquaredDistance:
    def test_point_pair(self):
        assert squared_distance(ConvexPoly([(0, 0)]), ConvexPoly([(3, 4)])) == 25

    def test_identity_segment(self):
        seg = segment((0, 0), (1, 0))
        assert squared_distance(seg, seg) == 0

    def test_point_to_segment_projection(self):
        # hand projection: foot at (1/2, 0), distance 3/4
        seg = segment((0, 0), (1, 0))
        assert squared_distance(seg, ConvexPoly([(F(1, 2), F(3, 4))])) == F(9, 16)

    def test_zero_iff_intersects(self):
        a = rect(0, 0, 1, 1)
        b = rect(1, 1, 2, 2)  # corner touch
        assert squared_distance(a, b) == 0
        c = rect(F(3, 2), F(3, 2), 2, 2)
        assert squared_distance(a, c) > 0

    def test_collinear_disjoint_segments(self):
        a = segment((0, 0), (1, 0))
        b = segment((2, 0), (3, 0))
        assert not polys_intersect(a, b)
        assert squared_distance(a, b) == 1

    def test_crossing_segments(self):
        a = segment((0, 0), (1, 1))
        b = segment((0, 1), (1, 0))
        assert polys_intersect(a, b)
        inter = convex_intersection(a, b)
        assert inter.vertices == ((F(1, 2), F(1, 2)),)

    def test_point_sq_tie(self):
        # a point at squared distance exactly q from a piece: the comparison
        # is exact, so a tie is neither side
        box = rect(-2, -2, 2, 2)
        assert F(*geom._point_sq((3, 0, 1), box)) == F(1)
        assert F(*geom._point_sq((3, 0, 1), box)) > F(99, 100)


class TestConnectivity:
    def test_shared_edge(self):
        region = RegionSnapshot(0, [rect(0, 0, 1, 1), rect(1, 0, 2, 1)])
        assert len(connectivity_components(region)) == 1

    def test_disjoint_boxes(self):
        region = RegionSnapshot(0, [rect(0, 0, 1, 1), rect(F(-2), 0, -1, 1)])
        assert len(connectivity_components(region)) == 2

    def test_agrees_with_flood_fill_oracle(self):
        # oracle pitch 2^-5; pieces snap to the 1/4 grid so inter-component
        # gaps are either 0 or at least 1/4 > 2^-3
        rng = random.Random(7)
        for _ in range(8):
            pieces = []
            for _k in range(rng.randint(2, 4)):
                x = F(rng.randint(-6, 4), 4)
                y = F(rng.randint(-6, 4), 4)
                pieces.append(rect(x, y, x + F(1, 2), y + F(1, 2)))
            region = RegionSnapshot(0, pieces)
            assert len(connectivity_components(region)) == flood_fill_components(
                region, 5
            )


class TestBroadPhase:
    @settings(max_examples=200, deadline=None)
    @given(BOXES)
    def test_pairs_match_double_loop(self, boxes):
        expected = {
            (i, j)
            for i in range(len(boxes))
            for j in range(i + 1, len(boxes))
            if boxes_overlap(boxes[i], boxes[j])
        }
        pairs = overlapping_pairs([int_box(b) for b in boxes])
        assert len(pairs) == len(expected)
        assert set(pairs) == expected

    @settings(max_examples=200, deadline=None)
    @given(BOXES, BOXES)
    def test_cross_pairs_match_double_loop(self, boxes, others):
        expected = {
            (i, j)
            for i in range(len(boxes))
            for j in range(len(others))
            if boxes_overlap(boxes[i], others[j])
        }
        pairs = overlapping_pairs([int_box(b) for b in boxes], [int_box(b) for b in others])
        assert len(pairs) == len(expected)
        assert set(pairs) == expected

    def test_touching_boxes_meet(self):
        boxes = [(F(0), F(0), F(1), F(1)), (F(1), F(1), F(2), F(2)), (F(2), F(0), F(2), F(1))]
        assert sorted(overlapping_pairs([int_box(b) for b in boxes])) == [(0, 1), (1, 2)]


class TestPieceGraph:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(BOX_PIECES, min_size=1, max_size=10), CUT_SHAPES)
    def test_matches_full_pass(self, pieces, shape):
        region = RegionSnapshot(0, pieces)
        full = len(oracles.connectivity_components(subtract_poly(region, shape)))
        assert len(region.graph().components(shape)) == full

    def test_joins_fragments(self):
        # a hole splits each square into fragments that still meet each other
        # and the neighbour's fragments: one component, not ten
        region = RegionSnapshot(0, [rect(0, 0, 1, 1), rect(1, 0, 2, 1)])
        hole = rect(F(3, 4), F(1, 4), F(5, 4), F(3, 4))
        assert len(region.graph().components(hole)) == 1
        assert len(region.graph().components(rect(F(3, 4), -1, F(5, 4), 2))) == 2

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(BOX_PIECES, PIECES), min_size=1, max_size=10))
    def test_components_match_union_find_oracle(self, pieces):
        region = RegionSnapshot(0, pieces)
        assert region.graph().components() == oracles.connectivity_components(region)

    @pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.json")))
    def test_config_components_match_union_find_oracle(self, name):
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        snaps, _, _ = CONSTRUCTIONS[config["construction"]].replay(config, 0, 6)
        for snap in snaps:
            assert snap.graph().components() == oracles.connectivity_components(snap)


class TestSubtraction:
    def test_disjoint_ball_is_noop(self):
        region = RegionSnapshot(0, [rect(0, 0, 1, 1)])
        ball = BallSpec((F(-1), F(-1)), F(1, 4))
        out = subtract_poly(region, ball_polygon(ball))
        assert region_covers(out.pieces, region.pieces)[0]
        assert region_covers(region.pieces, out.pieces)[0]

    def test_covering_ball_removes_everything(self):
        region = RegionSnapshot(0, [rect(0, 0, F(1, 8), F(1, 8))])
        ball = BallSpec((F(1, 16), F(1, 16)), F(1), kind="closed")
        assert subtract_poly(region, ball_polygon(ball)).is_empty()

    def test_result_covers_exact_difference(self):
        # sampled rational points outside the ball stay covered
        region = RegionSnapshot(0, [rect(0, 0, 1, 1)])
        ball = BallSpec((F(1, 2), F(1, 2)), F(1, 4))
        out = subtract_poly(region, ball_polygon(ball))
        rng = random.Random(11)
        for _ in range(200):
            p = (F(rng.randint(0, 64), 64), F(rng.randint(0, 64), 64))
            d2 = (p[0] - F(1, 2)) ** 2 + (p[1] - F(1, 2)) ** 2
            if d2 > F(1, 16):
                assert any(oracles.contains_point(piece, p) for piece in out.pieces)

    def test_removed_polygon_inside_ball(self):
        ball = BallSpec((0, 0), F(1, 2), kind="closed")
        poly = ball_polygon(ball)
        for x, y in poly.vertices:
            assert x * x + y * y <= F(1, 4)

    def test_convex_difference_partitions(self):
        a = rect(0, 0, 2, 2)
        b = rect(1, 1, 3, 3)
        pieces = convex_difference(a, b)
        assert pieces
        ok, _ = region_covers(pieces + [b], [a])
        assert ok
        for piece in pieces:
            inter = convex_intersection(piece, b)
            assert inter is None or inter.dim() < 2


def _tangent_circle_points(n: int):
    """The rounded-tangent circle points that the checked-in table replaced."""
    pts = []
    for j in range(n):
        half = math.pi * j / n
        if abs(half - math.pi / 2) < 1e-9:
            pts.append((F(-1), F(0)))
            continue
        t = F(round(math.tan(half) * (1 << 16)), 1 << 16)
        d = 1 + t * t
        pts.append(((1 - t * t) / d, 2 * t / d))
    return pts


# ball centres and radii over several denominators, so that the vertices'
# weights differ
CENTRE = st.tuples(st.integers(-40, 40), st.sampled_from((1, 3, 8, 1000))).map(lambda v: F(*v))
BALLS = st.builds(
    BallSpec,
    st.tuples(CENTRE, CENTRE),
    st.sampled_from((F(1), F(1, 3), F(5, 8), F(7, 1000), F(2, 3**7))),
    st.sampled_from(("open", "closed")),
)


class TestBallPolygon:
    def test_table_reproduces_tangent_formula(self):
        pts = [(F(x, w), F(y, w)) for x, y, w in balls._unit_circle_points()]
        assert pts == _tangent_circle_points(64)
        assert all(x * x + y * y == 1 for x, y in pts)

    @settings(max_examples=100, deadline=None)
    @given(BALLS)
    def test_matches_fraction_path(self, ball):
        assert ball_polygon(ball).hverts == oracles.ball_polygon(ball).hverts

    def test_dendrite_d_probes_run_no_hull(self, monkeypatch, tmp_path):
        # the cut-dichotomy probes are ball polygons, made with no hull
        def no_hull(self, points):
            raise AssertionError("ConvexPoly.__init__ called")

        monkeypatch.setattr(ConvexPoly, "__init__", no_hull)
        argv = ["verify", "--config", str(CONFIGS / "dendrite-d.json"), "--checks",
                "cut-dichotomy", "--stage-range", "0:8", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0


class TestKernelWork:
    """The kernel makes canonical pieces and `Fraction`s only where its
    callers read them."""

    PAIRS = (
        (rect(0, 0, 2, 2), ConvexPoly([(1, 0), (2, 1), (1, 2), (0, 1)])),  # the square's diamond
        (rect(0, 0, 2, 2), segment((-1, F(1, 2)), (3, F(3, 2)))),  # cut at two edges
        (rect(0, 0, 2, 2), ConvexPoly([(3, 1), (3, 3), (F(3, 2), 3)])),  # boxes meet only
    )

    def test_polys_intersect_makes_no_piece(self, monkeypatch):
        def no_piece(cls, verts):
            raise AssertionError("ConvexPoly._convex called")

        monkeypatch.setattr(ConvexPoly, "_convex", classmethod(no_piece))
        assert [polys_intersect(a, b) for a, b in self.PAIRS] == [True, True, False]
        assert [polys_intersect(b, a) for a, b in self.PAIRS] == [True, True, False]

    def test_convex_intersection_makes_one_piece(self, monkeypatch):
        made = []
        real = ConvexPoly._convex

        def counting(cls, verts):
            made.append(verts)
            return real(verts)

        monkeypatch.setattr(ConvexPoly, "_convex", classmethod(counting))
        for a, b in self.PAIRS[:2]:
            made.clear()
            assert convex_intersection(a, b) is not None and len(made) == 1
        made.clear()
        assert convex_intersection(*self.PAIRS[2]) is None and made == []
        inner = rect(F(1, 2), F(1, 2), 1, 1)
        assert convex_intersection(inner, rect(0, 0, 2, 2)) is inner and made == []

    def test_fan_hausdorff_makes_no_point_piece(self, monkeypatch):
        config = json.loads((CONFIGS / "cantor-fan-q.json").read_text())
        snaps, _, _ = CONSTRUCTIONS["cantor-fan-q"].replay(config, 2, 3)
        want = hausdorff_enclosure(snaps[0], snaps[1], 12)
        real_convex, real_bounds = ConvexPoly._convex, geom._directed_sq_bounds
        bounding = []  # the containment test may make point remainders; the bounds not

        def no_point(cls, verts):
            assert not bounding or len(set(verts)) > 1, "point piece made"
            return real_convex(verts)

        def bounds(*args):
            bounding.append(args)
            try:
                return real_bounds(*args)
            finally:
                bounding.pop()

        def no_distance(a, b):
            raise AssertionError("squared_distance called")

        monkeypatch.setattr(ConvexPoly, "_convex", classmethod(no_point))
        monkeypatch.setattr(geom, "_directed_sq_bounds", bounds)
        monkeypatch.setattr(geom, "squared_distance", no_distance)
        assert hausdorff_enclosure(snaps[0], snaps[1], 12) == want

    def test_fan_hausdorff_distance_count(self, monkeypatch):
        # one nearest-first pass per source piece makes 1,162 distances on
        # fan 2 against 3; the two separate searches it replaced made 1,622
        config = json.loads((CONFIGS / "cantor-fan-q.json").read_text())
        snaps, _, _ = CONSTRUCTIONS["cantor-fan-q"].replay(config, 2, 3)
        calls = []
        real = geom._point_sq

        def counting(p, piece):
            calls.append(p)
            return real(p, piece)

        monkeypatch.setattr(geom, "_point_sq", counting)
        hausdorff_enclosure(snaps[0], snaps[1], 12)
        assert 0 < len(calls) <= 1622


class TestContainment:
    def test_exact_cover_by_two(self):
        target = [rect(0, 0, 2, 1)]
        cover = [rect(0, 0, 1, 1), rect(1, 0, 2, 1)]
        ok, _ = region_covers(cover, target)
        assert ok

    def test_gap_detected(self):
        target = [rect(0, 0, 2, 1)]
        cover = [rect(0, 0, 1, 1), rect(F(3, 2), 0, 2, 1)]
        ok, witness = region_covers(cover, target)
        assert not ok and witness is not None

    def test_segment_cover(self):
        target = [segment((0, 0), (2, 0))]
        cover = [rect(0, F(-1, 4), 1, F(1, 4)), segment((1, 0), (2, 0))]
        ok, _ = region_covers(cover, target)
        assert ok
        short = [rect(0, F(-1, 4), 1, F(1, 4)), segment((1, 0), (F(15, 8), 0))]
        ok, witness = region_covers(short, target)
        assert not ok and witness.dim() == 1


def _two_way(d_ab, d_ba, tol_exp: int) -> DistanceEnclosure:
    """The enclosure from squared bounds of both directed distances."""
    prec = tol_exp + 4
    low = max(geom.sqrt_lower(d_ab[0], prec), geom.sqrt_lower(d_ba[0], prec))
    high = max(geom.sqrt_upper(d_ab[1], prec), geom.sqrt_upper(d_ba[1], prec))
    return DistanceEnclosure(low=max(F(0), low), high=high)


def _stage_of(snaps: dict, pieces) -> int:
    return next(s for s, snap in snaps.items() if snap.pieces is pieces)


@pytest.fixture(scope="module")
def fan_directed():
    """Fan stages 1..3 and squared bounds of both directed distances of the
    pairs (1, 2) and (2, 3) at tol_exp 12, each computed in full."""
    config = json.loads((CONFIGS / "cantor-fan-q.json").read_text())
    snaps = {s.stage: s for s in CONSTRUCTIONS["cantor-fan-q"].replay(config, 1, 3)[0]}
    half, prec = F(1, 1 << 13), 16
    directed = {
        (s, t): geom._directed_sq_bounds(snaps[s].pieces, snaps[t].pieces, half, prec)
        for s, t in ((1, 2), (2, 1), (2, 3), (3, 2))
    }
    return snaps, directed


class TestHausdorff:
    def test_self_distance_zero_lower(self):
        region = RegionSnapshot(0, [rect(0, 0, 1, 1), segment((F(3, 2), 0), (2, 0))])
        enc = hausdorff_enclosure(region, region, 12)
        assert enc.low == 0
        assert enc.high <= F(1, 1 << 12)

    def test_translated_segment(self):
        a = RegionSnapshot(0, [segment((0, 0), (1, 0))])
        b = RegionSnapshot(0, [segment((0, 1), (1, 1))])
        enc = hausdorff_enclosure(a, b, 12)
        assert enc.low <= 1 <= enc.high
        assert enc.high - enc.low <= F(1, 1 << 12)

    def test_point_vs_unit_square(self):
        a = RegionSnapshot(0, [ConvexPoly([(0, 0)])])
        b = RegionSnapshot(0, [rect(0, 0, 1, 1)])
        enc = hausdorff_enclosure(a, b, 12)
        # true value sqrt(2): enclosure must contain it
        assert enc.low * enc.low <= 2 <= enc.high * enc.high
        assert enc.high - enc.low <= F(1, 1 << 12)

    def test_symmetry_overlap(self):
        rng = random.Random(3)
        for _ in range(5):
            a = RegionSnapshot(
                0, [rect(F(rng.randint(-8, 4), 8), 0, F(rng.randint(5, 12), 8), 1)]
            )
            b = RegionSnapshot(
                0, [segment((F(rng.randint(-8, 8), 8), F(3, 2)), (1, F(3, 2)))]
            )
            e1 = hausdorff_enclosure(a, b, 10)
            e2 = hausdorff_enclosure(b, a, 10)
            assert e1.low <= e2.high and e2.low <= e1.high

    def test_containment_skip_matches_two_way(self, fan_directed, monkeypatch):
        # q(s+1) lies inside q(s), so one direction of each pair is skipped
        # as exactly 0; the enclosure must equal the one computed both ways
        snaps, directed = fan_directed
        requested = []

        def recorded(src, dst, tol, prec):
            key = (_stage_of(snaps, src), _stage_of(snaps, dst))
            requested.append(key)
            return directed[key]

        monkeypatch.setattr(geom, "_directed_sq_bounds", recorded)
        for s, t in ((1, 2), (2, 1), (2, 3), (3, 2)):
            requested.clear()
            enc = hausdorff_enclosure(snaps[s], snaps[t], 12)
            assert enc == _two_way(directed[s, t], directed[t, s], 12)
            assert requested == [(min(s, t), max(s, t))]  # the nested way is skipped
            assert directed[max(s, t), min(s, t)][0] == 0

    def test_no_skip_when_not_nested(self):
        config = json.loads((CONFIGS / "dendrite-h.json").read_text())
        a, b = CONSTRUCTIONS["dendrite-h"].replay(config, 1, 2)[0]
        assert not region_covers(a.pieces, b.pieces)[0]
        assert not region_covers(b.pieces, a.pieces)[0]
        half, prec = F(1, 1 << 13), 16
        ab = geom._directed_sq_bounds(a.pieces, b.pieces, half, prec)
        ba = geom._directed_sq_bounds(b.pieces, a.pieces, half, prec)
        assert hausdorff_enclosure(a, b, 12) == _two_way(ab, ba, 12)
        assert hausdorff_enclosure(b, a, 12) == _two_way(ba, ab, 12)

    def test_empty_raises(self):
        a = RegionSnapshot(0, [])
        b = RegionSnapshot(0, [ConvexPoly([(0, 0)])])
        with pytest.raises(ValueError):
            hausdorff_enclosure(a, b, 4)

    def test_sqrt_bounds(self):
        for q in (F(2), F(9, 16), F(0), F(5, 7)):
            lo = sqrt_lower(q, 20)
            hi = sqrt_upper(q, 20)
            assert lo * lo <= q <= hi * hi
            assert hi - lo <= F(2, 1 << 20)


class TestSceneJson:
    def test_round_trip(self):
        region = RegionSnapshot(
            3, [rect(0, 0, 1, 1), segment((F(5, 4), 0), (F(3, 2), F(1, 3)))]
        )
        doc = region.to_json()
        back = RegionSnapshot.from_json(doc)
        assert back.stage == region.stage
        assert back.pieces == region.pieces
        assert back.frame == region.frame

    def test_lowest_terms_strings(self):
        doc = RegionSnapshot(0, [ConvexPoly([(F(2, 4), F(0))])]).to_json()
        assert doc["pieces"][0]["verts"][0] == ["1/2", "0/1"]
