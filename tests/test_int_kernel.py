"""The integer kernel of `planarpi.geom` against the `Fraction` kernel it
replaced, kept in `tests/oracles.py`: the same pieces, in the same order,
with the same witnesses and the same exact distances.

Pieces are drawn with dyadic and triadic corners, so that the homogeneous
weights of one piece's vertices differ, and in pairs biased to shared
vertices, collinear segments, endpoint touches, vertices on edges, segments
cut at two edges and slivers, whose clip chains leave repeated and collinear
raw vertices.  Every sample config is compared too, at stages 0..6.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import planarpi.geom as geom
from planarpi.cli import CONSTRUCTIONS
from planarpi.geom import (
    ConvexPoly,
    clip_halfplane,
    convex_difference,
    convex_intersection,
    piece_pairs,
    polys_intersect,
    rect,
    region_covers,
    segment,
    squared_distance,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

UNITS = (F(1, 4), F(1, 9), F(1, 6))
COORD = st.one_of(
    st.integers(-8, 8).map(lambda k: F(k, 4)), st.integers(-9, 9).map(lambda k: F(k, 9))
)
PT = st.tuples(COORD, COORD)
UNIT = st.sampled_from(UNITS)
STEP = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
POLYGONS = st.lists(PT, min_size=3, max_size=5).map(ConvexPoly)
SEGMENTS = st.tuples(PT, PT).filter(lambda ab: ab[0] != ab[1]).map(lambda ab: segment(*ab))
BOXES = st.tuples(PT, PT).map(lambda pq: rect(pq[0][0], pq[0][1], pq[1][0], pq[1][1]))
PIECES = st.one_of(PT.map(lambda p: ConvexPoly([p])), SEGMENTS, BOXES, POLYGONS)


def _along(p, d, unit, k):
    return (p[0] + k * d[0] * unit, p[1] + k * d[1] * unit)


@st.composite
def collinear_pairs(draw):
    """Two segments on one line: overlapping, touching at an end, or apart."""
    p, d, unit = draw(PT), draw(STEP), draw(UNIT)
    i0, i1, j0, j1 = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    if draw(st.booleans()):
        j0 = i1  # touch at an endpoint (or overlap, if j1 turns back)
    assume(i0 != i1 and j0 != j1)
    a = segment(_along(p, d, unit, i0), _along(p, d, unit, i1))
    return a, segment(_along(p, d, unit, j0), _along(p, d, unit, j1))


@st.composite
def on_edge_pairs(draw):
    """A piece with a vertex on an edge of a polygon (or at a corner)."""
    poly = draw(POLYGONS)
    assume(poly.dim() == 2)
    v = poly.vertices
    i, k, m = draw(st.integers(0, len(v) - 1)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    p, q = v[i], v[(i + 1) % len(v)]
    on_edge = (p[0] + (q[0] - p[0]) * F(k, 3 * m), p[1] + (q[1] - p[1]) * F(k, 3 * m))
    other = ConvexPoly([on_edge, *draw(st.lists(PT, max_size=3))])
    return (poly, other) if draw(st.booleans()) else (other, poly)


def _on_edge(v, i: int, k: int):
    """The point k/4 of the way along the polygon's edge from vertex i."""
    p, q = v[i], v[(i + 1) % len(v)]
    return (p[0] + (q[0] - p[0]) * F(k, 4), p[1] + (q[1] - p[1]) * F(k, 4))


@st.composite
def crossing_pairs(draw):
    """A polygon and a segment or point from boundary points of it: the
    segment ends on two edges or runs past them, so that two clips cut it
    and each cut point is met twice on its closed path."""
    poly = draw(POLYGONS)
    assume(poly.dim() == 2)
    v = poly.vertices
    i, j = draw(st.lists(st.integers(0, len(v) - 1), min_size=2, max_size=2, unique=True))
    p, q = _on_edge(v, i, draw(st.integers(0, 3))), _on_edge(v, j, draw(st.integers(0, 3)))
    ext = draw(st.sampled_from((0, F(1, 2), 2)))
    a = (p[0] - ext * (q[0] - p[0]), p[1] - ext * (q[1] - p[1]))
    b = (q[0] + ext * (q[0] - p[0]), q[1] + ext * (q[1] - p[1]))
    other = ConvexPoly([p]) if p == q or draw(st.booleans()) else segment(a, b)
    return (poly, other) if draw(st.booleans()) else (other, poly)


@st.composite
def sliver_pairs(draw):
    """A polygon and a thin piece along it: its translate by a short step,
    or a triangle whose apex lies just off the middle of one of its edges."""
    poly = draw(POLYGONS)
    assume(poly.dim() == 2)
    v, (dx, dy), unit = poly.vertices, draw(STEP), F(1, 36)
    if draw(st.booleans()):
        other = ConvexPoly([(x + dx * unit, y + dy * unit) for x, y in v])
    else:
        i = draw(st.integers(0, len(v) - 1))
        mid = _on_edge(v, i, 2)
        other = ConvexPoly([v[i], v[(i + 1) % len(v)], (mid[0] + dx * unit, mid[1] + dy * unit)])
    return (poly, other) if draw(st.booleans()) else (other, poly)


SHARED_VERTEX_PAIRS = st.tuples(PT, st.lists(PT, max_size=3), st.lists(PT, max_size=3)).map(
    lambda v: (ConvexPoly([v[0], *v[1]]), ConvexPoly([v[0], *v[2]]))
)
PAIRS = st.one_of(
    st.tuples(PIECES, PIECES),
    SHARED_VERTEX_PAIRS,
    collinear_pairs(),
    on_edge_pairs(),
    crossing_pairs(),
    sliver_pairs(),
)
HALFPLANES = st.tuples(
    st.integers(-3, 3), st.sampled_from((1, F(1, 2), F(1, 3))), st.integers(-3, 3), COORD
).map(lambda v: (v[0] * v[1], v[2], v[3]))


def _assert_pair_matches(a: ConvexPoly, b: ConvexPoly) -> None:
    inter = convex_intersection(a, b)
    assert inter == oracles.convex_intersection(a, b)
    assert polys_intersect(a, b) == (inter is not None)
    assert convex_difference(a, b) == oracles.convex_difference(a, b)  # pieces and order
    assert squared_distance(a, b) == oracles.squared_distance(a, b)


class TestDrawnPieces:
    @settings(max_examples=300, deadline=None)
    @given(PIECES, HALFPLANES)
    def test_clip_matches_oracle(self, piece, plane):
        assert clip_halfplane(piece, *plane) == oracles.clip_halfplane(piece, *plane)

    @settings(max_examples=600, deadline=None)
    @given(PAIRS)
    def test_pair_operations_match_oracle(self, pair):
        a, b = pair
        _assert_pair_matches(a, b)
        _assert_pair_matches(b, a)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(PAIRS, st.tuples(PT.map(lambda p: ConvexPoly([p])), PIECES)))
    def test_distance_matches_edge_loop(self, pair):
        # the least point-to-piece distance from either piece's vertices,
        # against the distance's own edge loop that it replaced
        a, b = pair
        assert squared_distance(a, b) == oracles.int_squared_distance(a, b)
        assert squared_distance(b, a) == oracles.int_squared_distance(b, a)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(PIECES, max_size=4), st.lists(PIECES, min_size=1, max_size=2))
    def test_covers_and_witness_match_oracle(self, cover, target):
        assert region_covers(cover, target) == oracles.region_covers(cover, target)

    @settings(max_examples=200, deadline=None)
    @given(collinear_pairs(), st.booleans())
    def test_segment_covers_match_oracle(self, pair, with_box):
        # a segment against pieces on its line, so its cover has gaps,
        # overlaps and touching ends
        seg, other = pair
        cover = [other, rect(*seg.vertices[0], *seg.vertices[0])]
        if with_box:
            cover.append(rect(*other.vertices[1], *seg.vertices[1]))
        assert region_covers(cover, [seg]) == oracles.region_covers(cover, [seg])


def _in_one_piece(cover, target) -> bool:
    """Some cover piece holds every vertex of the target (by the oracle)."""
    return any(all(oracles.contains_point(c, v) for v in target.vertices) for c in cover)


class TestCoversBothWays:
    """Targets that one cover piece holds, which containment accepts by their
    vertices, and targets that only the difference loop or the 1-D meets
    decide: across two pieces, or poking out of the cover.  Points, segments
    and polygons on both sides."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(PIECES, max_size=3), PIECES, HALFPLANES)
    def test_target_clipped_from_a_cover_piece(self, others, piece, plane):
        target = clip_halfplane(piece, *plane)
        assume(target is not None)
        cover = [*others, piece]
        got = region_covers(cover, [target])
        assert got == oracles.region_covers(cover, [target]) == (True, None)

    @settings(max_examples=200, deadline=None)
    @given(PIECES, HALFPLANES, HALFPLANES)
    def test_target_across_two_cover_pieces(self, piece, cut, plane):
        # the cut runs through the mean of the piece's vertices, so that
        # both halves hold that point
        v = piece.vertices
        nx, ny, _ = cut
        c = sum(nx * x + ny * y for x, y in v) / len(v)
        cover = [clip_halfplane(piece, nx, ny, c), clip_halfplane(piece, -nx, -ny, -c)]
        target = clip_halfplane(piece, *plane)
        assume(target is not None)
        assume(not _in_one_piece(cover, target))
        got = region_covers(cover, [target])
        assert got == oracles.region_covers(cover, [target]) == (True, None)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(PIECES, min_size=1, max_size=3), HALFPLANES, PT, st.booleans())
    def test_target_poking_out_of_the_cover(self, cover, plane, p, alone):
        inside = clip_halfplane(cover[0], *plane)
        assume(inside is not None)
        target = ConvexPoly([p]) if alone else ConvexPoly([*inside.vertices, p])
        assume(not _in_one_piece(cover, target))
        assert region_covers(cover, [target]) == oracles.region_covers(cover, [target])


@settings(max_examples=100, deadline=None)
@given(PT, PT)
def test_segment_matches_hull_constructor(a, b):
    assert segment(a, b).hverts == ConvexPoly([a, b]).hverts


@pytest.fixture(scope="module")
def config_snapshots():
    """Every sample config's snapshots at stages 0..6."""
    snaps = {}
    for path in sorted(CONFIGS.glob("*.json")):
        config = json.loads(path.read_text())
        snaps[path.stem] = CONSTRUCTIONS[config["construction"]].replay(config, 0, 6)[0]
    return snaps


NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_config_covers_match_oracle(config_snapshots, name):
    # both orders of consecutive stages, so failing witnesses are compared too
    snaps = config_snapshots[name]
    for prev, nxt in zip(snaps, snaps[1:]):
        for cover, target in ((prev, nxt), (nxt, prev)):
            got = region_covers(cover.pieces, target.pieces)
            want = oracles.region_covers(cover.pieces, target.pieces)
            assert got == want, (cover.stage, target.stage)


@pytest.mark.parametrize("name", NAMES)
def test_config_pieces_match_oracle(config_snapshots, name):
    # pieces whose boxes meet, every 7th such pair, and neighbours in
    # snapshot order, which mostly lie apart
    for snap in config_snapshots[name]:
        pieces = snap.pieces
        pairs = piece_pairs(pieces)[::7] + [(i, i + 1) for i in range(0, len(pieces) - 1, 5)]
        for i, j in pairs:
            _assert_pair_matches(pieces[i], pieces[j])
            _assert_pair_matches(pieces[j], pieces[i])


@pytest.mark.parametrize(
    "name,s,t", [("dendrite-h", 1, 2), ("dendrite-h", 2, 1), ("cantor-fan-q", 2, 1)]
)
def test_hausdorff_bounds_match_oracle(config_snapshots, name, s, t):
    src, dst = config_snapshots[name][s].pieces, config_snapshots[name][t].pieces
    half, prec = F(1, 1 << 13), 16
    got = geom._directed_sq_bounds(src, dst, half, prec)
    assert got == oracles.directed_sq_bounds(src, dst, half, prec)


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("name", NAMES)
def test_config_hausdorff_bounds_match_oracle(config_snapshots, name, s):
    # consecutive stages in both directions, so that both nested sources
    # and sources that stick out are bounded and refined
    a, b = config_snapshots[name][s].pieces, config_snapshots[name][s + 1].pieces
    half, prec = F(1, 1 << 8), 12
    for src, dst in ((a, b), (b, a)):
        got = geom._directed_sq_bounds(src, dst, half, prec)
        assert got == oracles.directed_sq_bounds(src, dst, half, prec)


POINT_PIECES = PT.map(lambda p: ConvexPoly([p]))
SCENES = st.sampled_from((POINT_PIECES, SEGMENTS, st.one_of(POINT_PIECES, SEGMENTS))).flatmap(
    lambda pieces: st.lists(pieces, min_size=1, max_size=4)
)
FLAT_BOXES = st.tuples(PT, PT).filter(lambda pq: pq[0][0] != pq[1][0] and pq[0][1] != pq[1][1])


@st.composite
def nested_box_scenes(draw):
    """A union of 2-D boxes and a union of boxes drawn inside them, some
    shifted to stick out, in either order: a piece whose lower and upper
    bounds are equal is common."""
    outer, inner = [], []
    for (x0, y0), (x1, y1) in draw(st.lists(FLAT_BOXES, min_size=1, max_size=3)):
        outer.append(rect(x0, y0, x1, y1))
        a, b, c, e = (F(k, 4) for k in draw(st.lists(st.integers(0, 4), min_size=4, max_size=4)))
        dx, dy = draw(st.sampled_from(((0, 0), (0, 0), (F(1, 8), 0), (F(-1, 3), F(1, 9)))))
        inner.append(
            rect(x0 + (x1 - x0) * a + dx, y0 + (y1 - y0) * c + dy,
                 x0 + (x1 - x0) * b + dx, y0 + (y1 - y0) * e + dy)
        )
    return (inner, outer) if draw(st.booleans()) else (outer, inner)


# source boxes whose directed distance 2/9 to the targets is reached along
# the whole segment x = 2/9, equidistant from two targets: along it a
# piece's upper bound exceeds the truth by about the piece's width, so the
# refinement splits many pieces there
RIDGE = (
    [rect(F(1, 8), -1, F(9, 16), F(-1, 2)), rect(F(-5, 36), F(3, 4), 0, 1),
     rect(F(1, 9), F(25, 36), F(1, 2), F(5, 6))],
    [rect(0, -1, F(7, 4), F(-1, 3)), rect(F(-5, 9), 0, 0, 1), rect(F(4, 9), F(4, 9), 2, 1)],
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(SCENES, SCENES), nested_box_scenes()), st.sampled_from((2, 6, 12, 20)))
@example(RIDGE, 10)
def test_hausdorff_bounds_match_freezing_refinement(scene, tol_exp):
    # at the tolerance and precision `hausdorff_enclosure` uses, a piece
    # whose bounds meet never holds the largest upper bound while the width
    # test fails, so the refinement that froze such pieces gives the same
    # bounds; point pieces have meeting bounds from the start, and nested
    # boxes often do
    src, dst = scene
    half, prec = F(1, 1 << (tol_exp + 1)), tol_exp + 4
    got = geom._directed_sq_bounds(src, dst, half, prec)
    assert got == oracles.int_directed_sq_bounds(src, dst, half, prec)
    assert got == oracles.directed_sq_bounds(src, dst, half, prec)


def test_hausdorff_refinement_on_a_ridge(monkeypatch):
    """At `tol_exp` 12 the ridge takes 1,535 splits to these bounds; pinned
    without the oracles, whose refinement is quadratic in the splits."""
    splits, split = [], geom._split_piece

    def counting(piece):
        splits.append(piece)
        return split(piece)

    monkeypatch.setattr(geom, "_split_piece", counting)
    got = geom._directed_sq_bounds(*RIDGE, F(1, 1 << 13), 16)
    assert len(splits) == 1535
    assert got == (F(67092481, 1358954496), F(7458361, 150994944))
