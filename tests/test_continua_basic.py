"""Reference continua and the gated dendrite."""

from fractions import Fraction as F

from planarpi.cesets import EnumerationScript
from planarpi.continua.dendrite import build_dendrite_d, cut_ball, rising_width
from planarpi.continua.examples import basic_dendrite, cantor_endpoints, cantor_fan, harmonic_comb
from planarpi.balls import ball_polygon
from planarpi.geom import connectivity_components, segment, subtract_poly

import oracles
from oracles import flood_fill_components

FIG5_SCRIPT = EnumerationScript([(1, 1), (3, 3)])


class TestBasicDendrite:
    def test_stage_zero(self):
        region = basic_dendrite(0)
        assert segment((1, 0), (1, 1)) in region.pieces
        assert len(region.pieces) == 2

    def test_stage_two_risings(self):
        region = basic_dendrite(2)
        xs = set()
        for piece in region.pieces:
            (a, b) = piece.vertices
            if a[0] == b[0]:
                xs.add(a[0])
        assert xs == {F(1), F(1, 2), F(1, 4)}

    def test_connected_all_stages(self):
        for stage in range(5):
            assert len(connectivity_components(basic_dendrite(stage))) == 1


class TestHarmonicComb:
    def test_stage_three_risings(self):
        region = harmonic_comb(3)
        xs = {p.vertices[0][0] for p in region.pieces if p.vertices[0][0] == p.vertices[1][0]}
        assert xs == {F(0), F(1), F(1, 2), F(1, 3)}

    def test_connected(self):
        for stage in range(1, 5):
            assert len(connectivity_components(harmonic_comb(stage))) == 1


class TestCantorFan:
    def test_stage_one_segments(self):
        region = cantor_fan(1)
        assert len(region.pieces) == 4
        tops = sorted(v[0] for p in region.pieces for v in p.vertices if v[1] == 1)
        assert tops == [F(0), F(1, 3), F(2, 3), F(1)]

    def test_connected(self):
        for stage in range(3):
            assert len(connectivity_components(cantor_fan(stage))) == 1

    def test_endpoints_match_interval_splitting(self):
        # the endpoints come from the ternary codes of the level's strings;
        # the oracle splits each interval in thirds, level by level
        for level in range(10):
            assert cantor_endpoints(level) == oracles.cantor_endpoints(level)


class TestDendriteD:
    def test_left_leg_of_rising_one(self):
        # w(1) = 1/8 under the figure script, legs at 1/2 -+ 1/8
        region = build_dendrite_d(4, FIG5_SCRIPT)
        assert segment((F(3, 8), 0), (F(3, 8), F(1, 2))) in region.pieces

    def test_unenumerated_rising_thin(self):
        region = build_dendrite_d(4, FIG5_SCRIPT)
        assert segment((1, 0), (1, 1)) in region.pieces

    def test_connected_with_flood_fill_oracle(self):
        # oracle pitch 2^-8 as the derived-example pins it
        region = build_dendrite_d(4, FIG5_SCRIPT)
        assert len(connectivity_components(region)) == 1
        assert flood_fill_components(region, 8) == 1

    def test_connected_all_stages(self):
        for stage in range(7):
            region = build_dendrite_d(stage, FIG5_SCRIPT)
            assert len(connectivity_components(region)) == 1

    def test_cut_dichotomy_small(self):
        region = build_dendrite_d(4, FIG5_SCRIPT)
        for t in range(5):
            cut = subtract_poly(region, ball_polygon(cut_ball(t)))
            expected = 2 if rising_width(FIG5_SCRIPT, t) > 0 else 1
            assert len(connectivity_components(cut)) == expected, t

    def test_cut_ball_radius(self):
        ball = cut_ball(1)
        assert ball.center == (F(1, 2), F(1, 2))
        assert ball.radius == F(1, 8)

    def test_explicit_small_ball_also_cuts(self):
        # even a radius-1/16 closed ball on the gate cap severs the snapshot
        from planarpi.balls import BallSpec

        region = build_dendrite_d(4, FIG5_SCRIPT)
        ball = BallSpec((F(1, 2), F(1, 2)), F(1, 16), kind="closed")
        cut = subtract_poly(region, ball_polygon(ball))
        assert len(connectivity_components(cut)) == 2

