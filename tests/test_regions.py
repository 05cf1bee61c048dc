"""Triangle cubes, banded corner regions, normalized levels."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from planarpi.cantor import TreePresentation, full_tree
from planarpi.continua.regions import CORNER_DELTAS, delta_cube, normalize_level, v_region
from planarpi.geom import ConvexPoly, clip_halfplane, rect, region_covers

UNIT = st.fractions(0, 1, max_denominator=30)
COORD = st.fractions(-3, 3, max_denominator=30)
SIDE = st.one_of(st.just(F(0)), st.fractions(0, 3, max_denominator=30))
INTERVALS = st.lists(st.tuples(UNIT, UNIT).map(sorted), max_size=5)


class TestDeltaCube:
    def test_lower_right(self):
        tri = delta_cube(1, 0, 0, 0, 1, 1)
        assert tri == ConvexPoly([(0, 0), (1, 0), (1, 1)])

    def test_upper_right(self):
        tri = delta_cube(1, 1, 0, 0, 1, 1)
        assert tri == ConvexPoly([(1, 0), (0, 1), (1, 1)])

    def test_degenerate_width(self):
        tri = delta_cube(0, 0, 5, 2, 0, 3)
        assert tri == ConvexPoly([(5, 2), (5, 5)])

    def test_omits_the_named_corner(self):
        for i in (0, 1):
            for j in (0, 1):
                for a, b, q, r in ((0, 0, 1, 1), (F(-1, 3), F(7, 8), F(5, 2), F(1, 7))):
                    corners = [(a + dx * q, b + dy * r) for dx in (0, 1) for dy in (0, 1)]
                    omit = (a + (1 - i) * q, b + (1 - j) * r)
                    expected = ConvexPoly([c for c in corners if c != omit])
                    assert delta_cube(i, j, a, b, q, r) == expected


class TestVRegion:
    def test_full_interval_bar_is_square(self):
        pieces = v_region("-", [(F(0), F(1))], 0, 0, 1, 1)
        assert len(pieces) == 1 and pieces[0] == rect(0, 0, 1, 1)

    def test_corner_shape_band_counts(self):
        # one horizontal band clipped by the lower-right triangle plus one
        # vertical band clipped by the upper-left one
        pieces = v_region("ll", [(F(1, 6), F(1, 2))], 0, 0, 1, 1)
        assert len(pieces) == 2
        union_target = [rect(0, F(1, 6), 1, F(1, 2)), rect(F(1, 6), 0, F(1, 2), 1)]
        ok, _ = region_covers(union_target, pieces)
        assert ok

    def test_degenerate_interval_gives_segments(self):
        pieces = v_region("-", [(F(1, 2), F(1, 2))], 0, 0, 1, 1)
        assert len(pieces) == 1 and pieces[0].dim() == 1
        pieces = v_region("ll", [(F(1, 2), F(1, 2))], 0, 0, 1, 1)
        assert all(p.dim() <= 1 for p in pieces)
        assert len(pieces) == 2

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            v_region("-", [(F(-1, 2), F(1, 2))], 0, 0, 1, 1)

    def test_unknown_symbol_rejected(self):
        for symbol in ("", "-|", "x"):
            with pytest.raises(ValueError, match="unknown region symbol"):
                v_region(symbol, [(F(0), F(1))], 0, 0, 1, 1)


class TestMatchesFractionPath:
    """The integer band builder equals the `Fraction` path it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(symbol=st.sampled_from(["-", "|", *CORNER_DELTAS]), intervals=INTERVALS,
           a=COORD, b=COORD, q=SIDE, r=SIDE)
    def test_v_region(self, symbol, intervals, a, b, q, r):
        got = v_region(symbol, intervals, a, b, q, r)
        want = oracles.v_region(symbol, intervals, a, b, q, r)
        assert [p.hverts for p in got] == [p.hverts for p in want]

    @settings(max_examples=40, deadline=None)
    @given(i=st.integers(0, 1), j=st.integers(0, 1), a=COORD, b=COORD, q=SIDE, r=SIDE)
    def test_delta_cube(self, i, j, a, b, q, r):
        plane = oracles.delta_halfplane(i, j, a, b, q, r)
        want = clip_halfplane(rect(a, b, a + q, b + r), *plane)
        assert delta_cube(i, j, a, b, q, r).hverts == want.hverts


class TestNormalizeLevel:
    def test_same_stage_touches_both_ends(self):
        for s in range(4):
            ivs = normalize_level(full_tree(), s, s)
            assert ivs[0][0] == 0 and ivs[-1][1] == 1

    def test_full_tree_symmetric_pair(self):
        ivs = normalize_level(full_tree(), 0, 1)
        assert len(ivs) == 2
        (a0, b0), (a1, b1) = ivs
        assert a0 + b1 == 1 and b0 + a1 == 1

    def test_single_path_antitone(self):
        entries = [("0" * k + "1", 0) for k in range(8)]
        tree = TreePresentation(entries)
        prev = None
        for t in range(6):
            ivs = normalize_level(tree, 0, t)
            assert len(ivs) == 1
            if prev is not None:
                assert prev[0] <= ivs[0][0] and ivs[0][1] <= prev[1]
            prev = ivs[0]

    def test_rejects_t_below_s(self):
        with pytest.raises(ValueError):
            normalize_level(full_tree(), 3, 2)
