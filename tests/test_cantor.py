"""Trees, fat levels, symmetrization, and the stutter embedding."""

import contextlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planarpi.cantor import (
    TreePresentation,
    cantor_coord,
    dyadic_real,
    fat_level,
    flip_bits,
    full_tree,
    leftmost_path,
    pad_eps,
    single_path_tree,
    stutter_block_count,
    stutter_embed,
    symmetrize,
    tree_immune_witness,
)
from planarpi.continua.regions import normalize_level

import oracles


def random_presentation(rng: random.Random, depth: int = 7, entries: int = 6):
    prune = []
    for _ in range(entries):
        length = rng.randint(1, depth)
        sigma = "".join(rng.choice("01") for _ in range(length))
        prune.append((sigma, rng.randint(0, depth)))
    return TreePresentation(prune)


class TestCoding:
    def test_empty_string(self):
        assert cantor_coord("") == F(1, 3)

    def test_one(self):
        assert cantor_coord("1") == F(5, 9)

    def test_zero_one(self):
        assert cantor_coord("01") == F(11, 27)

    def test_order_preserving(self):
        for length in range(1, 7):
            strings = [format(i, f"0{length}b") for i in range(1 << length)]
            coords = [cantor_coord(s) for s in strings]
            assert coords == sorted(coords)
            assert len(set(coords)) == len(coords)

    def test_matches_term_by_term_sum(self):
        # reference: 1/3 plus 2 * 3^-(i+2) for each 1-bit, one Fraction per term
        for length in range(10):
            for i in range(1 << length):
                sigma = format(i, f"0{length}b") if length else ""
                terms = [2 * F(1, 3 ** (j + 2)) for j, c in enumerate(sigma) if c == "1"]
                assert cantor_coord(sigma) == F(1, 3) + sum(terms, F(0))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            cantor_coord("012")


class TestFatLevels:
    def test_full_tree_level_zero(self):
        assert fat_level(full_tree(), 0).intervals == ((F(2, 9), F(7, 9)),)

    def test_full_tree_level_one(self):
        assert fat_level(full_tree(), 1).intervals == (
            (F(8, 27), F(13, 27)),
            (F(14, 27), F(19, 27)),
        )

    def test_prune_removes_right_interval(self):
        tree = TreePresentation([("1", 0)])
        assert fat_level(tree, 1).intervals == ((F(8, 27), F(13, 27)),)

    def test_markers(self):
        lvl = fat_level(full_tree(), 2)
        eps = pad_eps(2)
        assert lvl.l_star == lvl.l_minus + eps / 2
        assert lvl.l == lvl.l_minus + eps
        assert lvl.r_star == lvl.r_plus - eps / 2
        assert lvl.r == lvl.r_plus - eps

    def test_empty_level_raises(self):
        tree = TreePresentation([("0", 0), ("1", 0)])
        with pytest.raises(ValueError):
            fat_level(tree, 1)

    def test_nesting_and_disjointness_random(self):
        rng = random.Random(2024)
        for _ in range(12):
            tree = random_presentation(rng)
            if tree.is_empty(13):
                continue
            prev = None
            for s in range(9):
                lvl = fat_level(tree, s)
                ivs = lvl.intervals
                for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
                    assert b0 < a1  # sibling disjointness
                if prev is not None:
                    for lo, hi in ivs:
                        assert any(plo <= lo and hi <= phi for plo, phi in prev)
                prev = ivs

    def test_margin_invariant(self):
        rng = random.Random(5)
        for _ in range(6):
            tree = random_presentation(rng)
            if tree.is_empty(13):
                continue
            for s in range(7):
                lvl_s = fat_level(tree, s)
                for t in range(s, 10):
                    lvl_t = fat_level(tree, t)
                    assert lvl_t.min_point() >= lvl_s.l - pad_eps(t)
                    assert lvl_t.max_point() <= lvl_s.r + pad_eps(t)

    def test_margins_solid_and_band_free(self):
        # [l-, l*] is inside the level-s set and misses every later level
        tree = full_tree()
        for s in range(6):
            lvl = fat_level(tree, s)
            nxt = fat_level(tree, s + 1)
            assert nxt.min_point() > lvl.l_star
            assert nxt.max_point() < lvl.r_star


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_PRUNES = [
    [tuple(entry) for entry in json.loads(path.read_text())["P"]["prune"]]
    for path in sorted(CONFIGS.glob("*.json"))
    if "P" in json.loads(path.read_text())
]
# schedules as criterion 3 draws them: up to 8 strings of length 1..8, each
# pruned after a stage in 0..10
SCHEDULES = st.lists(
    st.tuples(st.text("01", min_size=1, max_size=8), st.integers(0, 10)), max_size=8
)


def with_config_prunes(**fixed):
    """Run a test on every config's schedule as well as on drawn ones, and on
    two that prune the root: alone, so that `level` walks no length, and with
    a longer string.  `fixed` gives the test's other arguments for these."""

    def add_examples(test):
        for prune in CONFIG_PRUNES + [[("", 3)], [("", 0), ("01", 5)]]:
            test = example(prune=prune, **fixed)(test)
        return test

    return add_examples


def as_ints(intervals):
    return [(lo.numerator, lo.denominator, hi.numerator, hi.denominator) for lo, hi in intervals]


class TestMatchesOracle:
    """`level`, `fat_level` and `normalize_level` equal the code they replaced,
    each side on its own fresh tree."""

    @settings(max_examples=12, deadline=None)
    @given(prune=SCHEDULES, stage=st.integers(0, 14))
    @with_config_prunes(stage=14)
    def test_level(self, prune, stage):
        tree, old = TreePresentation(prune), TreePresentation(prune)
        for length in range(15):
            assert tree.level(length, stage) == oracles.level(old, length, stage)

    @settings(max_examples=4, deadline=None)
    @given(prune=SCHEDULES, order=st.permutations(range(15)))
    @with_config_prunes(order=[7, 14, 0, 13, 3, 12, 1, 11, 2, 10, 4, 9, 5, 8, 6])
    def test_fat_level_in_any_order(self, prune, order):
        tree, old = TreePresentation(prune), TreePresentation(prune)
        for s in order:
            try:
                expected = as_ints(oracles.fat_level(old, s).intervals)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    fat_level(tree, s)
            else:
                assert as_ints(fat_level(tree, s).intervals) == expected

    @settings(max_examples=5, deadline=None)
    @given(prune=SCHEDULES)
    @with_config_prunes()
    def test_normalize_level(self, prune):
        tree, old = TreePresentation(prune), TreePresentation(prune)
        if tree.is_empty(10):
            return
        levels = [oracles.fat_level(old, s) for s in range(11)]
        for s in range(11):
            for t in range(s, 11):
                expected = oracles.normalize_level(levels[s], levels[t])
                assert as_ints(normalize_level(tree, s, t)) == as_ints(expected)

    @settings(max_examples=20, deadline=None)
    @given(prune=SCHEDULES)
    @with_config_prunes()
    def test_fat_levels_test_survival_only_to_the_prune_horizon(self, prune):
        tree = TreePresentation(prune)
        with contextlib.suppress(ValueError):  # an empty level is walked all the same
            fat_level(tree, 12)
        assert max(len(sigma) for sigma, _ in tree._covered_cache) <= tree.max_prune_len


class TestSymmetrize:
    def _is_symmetric(self, tree, depth=8):
        for length in range(depth):
            for stage in range(depth):
                lvl = tree.level(length, stage)
                assert sorted(flip_bits(s) for s in lvl) == lvl

    def test_full_tree_unchanged(self):
        sym = symmetrize(full_tree())
        for s in range(5):
            assert fat_level(sym, s).intervals == fat_level(full_tree(), s).intervals

    def test_single_path_becomes_mirror_pair(self):
        sym = symmetrize(single_path_tree("0", depth=10))
        self._is_symmetric(sym)
        for s in range(9):
            lvl = fat_level(sym, s)
            assert lvl.min_point() + lvl.max_point() == 1

    def test_idempotent_on_symmetric(self):
        base = symmetrize(single_path_tree("0", depth=8))
        again = symmetrize(base)
        for s in range(8):
            assert fat_level(again, s).intervals == fat_level(base, s).intervals


class TestLeftmostPath:
    def test_full_tree(self):
        assert leftmost_path(full_tree(), 1, 3) == "000"

    def test_prune_forces_right(self):
        tree = TreePresentation([("0", 1)])
        assert leftmost_path(tree, 2, 2) == "10"

    def test_stage_zero_sees_nothing(self):
        tree = TreePresentation([("0", 1)])
        assert leftmost_path(tree, 0, 4) == "0000"

    def test_monotone_in_stage(self):
        rng = random.Random(17)
        for _ in range(10):
            tree = random_presentation(rng, depth=5)
            if tree.is_empty(10):
                continue
            paths = [leftmost_path(tree, s, 5) for s in range(8)]
            for a, b in zip(paths, paths[1:]):
                assert a <= b

    def test_empty_raises(self):
        tree = TreePresentation([("0", 0), ("1", 0)])
        with pytest.raises(ValueError):
            leftmost_path(tree, 1, 2)


class TestTreeImmuneWitness:
    def test_root_always_embeds(self):
        reports = tree_immune_witness(full_tree(), [{""}], depth=4)
        assert reports[0].embeds

    def test_fully_pruned_candidate_fails(self):
        # pruning every length-2 string empties the tree via the closure rule,
        # so the embedding already fails at the root
        tree = TreePresentation([("00", 0), ("01", 0), ("10", 0), ("11", 0)])
        candidate = {"", "0", "1", "00", "01", "10", "11"}
        reports = tree_immune_witness(tree, [candidate], depth=5)
        assert not reports[0].embeds
        assert reports[0].failing_depth is not None
        assert reports[0].failing_depth <= 2

    def test_path_in_full_tree(self):
        candidate = {"0" * k for k in range(6)}
        reports = tree_immune_witness(full_tree(), [candidate], depth=5)
        assert reports[0].embeds

    def test_prefix_closure_required(self):
        with pytest.raises(ValueError):
            tree_immune_witness(full_tree(), [{"01"}], depth=3)


class TestStutterEmbed:
    def test_identity_doubles(self):
        f = list(range(10))
        assert stutter_embed("0110", f) == "00111100"

    def test_block_count_identity(self):
        f = list(range(20))
        for n in range(8):
            assert stutter_block_count(f, n) == n

    def test_sticking_pair_images_differ_twice(self):
        # alpha sticks to beta on sigma: the images disagree in >= 2 places
        # in each direction, so they no longer stick either way
        sigma = "01"
        alpha = sigma + "0" + "11111"
        beta = sigma + "1" + "00000"
        f = list(range(10))
        ia = stutter_embed(alpha, f)
        ib = stutter_embed(beta, f)
        assert len(ia) == len(ib)
        a_ahead = sum(1 for x, y in zip(ia, ib) if x == "0" and y == "1")
        b_ahead = sum(1 for x, y in zip(ia, ib) if x == "1" and y == "0")
        assert a_ahead >= 2 and b_ahead >= 2

    def test_injective_on_equal_length(self):
        # block-aligned prefix lengths: every input position is consumed
        cases = [(list(range(10)), 6), ([0, 2, 5, 7], 5), ([0, 2, 5], 2)]
        for f, length in cases:
            images = {}
            for i in range(1 << length):
                alpha = format(i, f"0{length}b")
                img = stutter_embed(alpha, f)
                assert img not in images, (f, alpha)
                images[img] = alpha

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            stutter_embed("", [0, 1, 2])


class TestDyadicReal:
    def test_single_one(self):
        assert dyadic_real("1") == (F(1, 2), F(1))

    def test_empty(self):
        assert dyadic_real("") == (F(0), F(1))

    def test_zero_one(self):
        assert dyadic_real("01") == (F(1, 4), F(1, 2))
