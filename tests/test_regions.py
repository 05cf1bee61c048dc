"""Triangle cubes, banded corner regions, reframing coefficients."""

from fractions import Fraction as F

import pytest

from planarpi.cantor import TreePresentation, full_tree
from planarpi.continua import delta_cube, n_coefficients, normalize_level, v_region
from planarpi.geom import ConvexPoly, rect, region_covers


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


class TestNCoefficients:
    def test_identity_reframing(self):
        l, r = F(1, 5), F(4, 5)
        assert n_coefficients(l, r, 3, 2, l, r) == (F(3), F(2))

    def test_constant_map(self):
        assert n_coefficients(0, 1, F(7), F(0), F(1, 3), F(2, 3)) == (F(7), F(0))

    def test_solved_system(self):
        n0, n1 = n_coefficients(0, 1, 0, 1, F(1, 2), F(3, 4))
        assert (n0, n1) == (F(1, 2), F(1, 4))

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError):
            n_coefficients(F(1, 2), F(1, 2), 0, 1, 0, 1)


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
