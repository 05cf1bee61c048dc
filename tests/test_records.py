"""The value classes built on `planarpi.Record`: constructors, checks,
equality and hashing."""

from fractions import Fraction as F

import pytest

from planarpi.balls import BallSpec
from planarpi.cantor import FatCantorLevel, fat_level, full_tree
from planarpi.continua.fanq import AffineFrame, BlockRecord
from planarpi.continua.regions import LEFT, Direction
from planarpi.verify import CheckReport


def test_fat_level_rebuilt_positionally_is_equal():
    level = fat_level(full_tree(), 3)
    again = FatCantorLevel(level.stage, level.intervals)
    assert again == level and hash(again) == hash(level)
    assert FatCantorLevel(level.stage, intervals=level.intervals) == level
    with pytest.raises(ValueError):
        FatCantorLevel(level.stage + 1, level.intervals)
    assert fat_level(full_tree(), 4) != level


@pytest.mark.parametrize(
    "interval",
    [(F(2, 27), F(7, 27)), (F(2, 9), F(8, 9)), (F(1, 18), F(11, 18)), (F(2, 9), None), ("x", "y"), (F(2, 9),),
     (F(1, 2), F(1))],
    # 1/2 is 4/9 rounded down, and 4/9 + 5/9 is 1
    ids=["other-stage", "wide", "half-numerator", "none", "not-a-number", "not-a-pair", "half-end"],
)
def test_fat_level_refuses_an_interval_of_another_form(interval):
    with pytest.raises(ValueError):
        FatCantorLevel(0, [interval])


def test_fat_level_shifted_by_one_builds():
    """The shape of a level whose first interval is moved left by 1."""
    level = fat_level(full_tree(), 2)
    (lo, hi), *rest = level.intervals
    shifted = FatCantorLevel(level.stage, ((lo - 1, hi - 1), *rest))
    assert shifted.intervals == ((lo - 1, hi - 1), *rest)
    assert shifted.lefts[0] == level.lefts[0] - 3**4 and shifted != level


def test_fat_level_intervals_are_made_once():
    lvl = fat_level(full_tree(), 5)
    assert lvl.intervals is lvl.intervals


def test_records_of_different_classes_differ():
    assert Direction(0, 0) == LEFT and hash(Direction(0, 0)) == hash(LEFT)
    assert AffineFrame(0, 0) != LEFT


def test_block_records_compare_without_band_box():
    def block(band_box):
        return BlockRecord(0, 1, "straight", LEFT, LEFT, 1, (F(0), F(1), F(0), F(1)),
                           axis=0, band_box=band_box)

    assert block((0, 0, 1, 1, 1)) == block(None)
    assert block(None) != BlockRecord(0, 1, "straight", LEFT, LEFT, 1, (F(0), F(1), F(0), F(1)))
    with pytest.raises(TypeError):
        hash(block(None))  # blocks are mutable, so they do not hash


def test_failing_report_needs_a_witness():
    with pytest.raises(ValueError, match="requires a witness"):
        CheckReport("nesting", (0, 1), "fail")
    assert CheckReport("nesting", (0, 1), "fail", {"stage": 0}).witness == {"stage": 0}


def test_ball_spec_normalises_centre_and_radius():
    ball = BallSpec((1, "1/2"), "3/4")
    assert ball == BallSpec((F(1), F(1, 2)), F(3, 4), "closed")
    assert type(ball.center) is tuple and all(type(v) is F for v in (*ball.center, ball.radius))
    assert hash(ball) == hash(BallSpec((F(1), F(1, 2)), F(3, 4)))


@pytest.mark.parametrize(
    "radius,kind,message",
    [(0, "closed", "positive"), ("-1/2", "open", "positive"), (1, "half-open", "open or closed")],
)
def test_ball_spec_rejects(radius, kind, message):
    with pytest.raises(ValueError, match=message):
        BallSpec((0, 0), radius, kind)
