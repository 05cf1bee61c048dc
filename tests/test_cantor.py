"""Trees, fat levels, symmetrization, and leftmost paths."""

import contextlib
import gc
import json
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planarpi import cantor
from planarpi.cantor import (
    TreePresentation,
    cantor_coord,
    fat_level,
    flip_bits,
    full_tree,
    leftmost_path,
    pad_eps,
)
from planarpi.continua.regions import level_ends, normalize_level

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
        assert lvl.r_star == lvl.r_plus - eps / 2

    def test_empty_level_raises(self):
        tree = TreePresentation([("0", 0), ("1", 0)])
        with pytest.raises(ValueError):
            fat_level(tree, 1)

    @pytest.mark.parametrize("stage", [-1, -7, True, False, 1.0, "2", None])
    def test_stage_must_be_natural(self, stage):
        """One error naming the stage: a negative stage must not recurse
        downwards, and a cached level must not answer for a bool or a float."""
        tree = full_tree()
        fat_level(tree, 1)
        message = f"fat level stage must be a natural number, got {stage!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fat_level(tree, stage)

    def test_inner_markers_are_made_from_integers(self):
        """`l_star` and `r_star` are the ends moved half a pad inwards, made
        in lowest terms."""
        levels = []
        for prune in criterion_3_schedules(seed=7, count=20):
            tree = TreePresentation(prune)
            with contextlib.suppress(ValueError):  # a later level is empty too
                levels.extend(fat_level(tree, s) for s in range(13))
        markers = [(lvl.l_star, lvl.r_star) for lvl in levels]
        assert len(levels) > 250
        for lvl, (l_star, r_star) in zip(levels, markers):
            assert l_star == lvl.l_minus + pad_eps(lvl.stage) / 2
            assert r_star == lvl.r_plus - pad_eps(lvl.stage) / 2
            for end in (l_star, r_star):
                assert type(end) is F and end.denominator == 2 * 3 ** (lvl.stage + 2)
                assert math.gcd(end.numerator, end.denominator) == 1

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
                    assert lvl_t.l_minus >= lvl_s.l_minus + pad_eps(s) - pad_eps(t)
                    assert lvl_t.r_plus <= lvl_s.r_plus - pad_eps(s) + pad_eps(t)

    def test_margins_solid_and_band_free(self):
        # [l-, l*] is inside the level-s set and misses every later level
        tree = full_tree()
        for s in range(6):
            lvl = fat_level(tree, s)
            nxt = fat_level(tree, s + 1)
            assert nxt.l_minus > lvl.l_star
            assert nxt.r_plus < lvl.r_star

    @pytest.mark.parametrize(
        "make_tree",
        [full_tree, lambda: TreePresentation([("01", 2), ("110", 4), ("1", 9)])],
        ids=["full", "pruned"],
    )
    def test_no_fraction_made_and_walked_only_to_the_prune_horizon(self, monkeypatch, make_tree):
        """Growing levels 0..12 and reading them as integer ends in every
        frame, with `level_ends(tree, s, t)` for s <= t <= 12, make no
        `Fraction`, and the tree is walked no deeper than its longest pruned
        string, and only at the stages before it has settled."""
        made, lengths, stages = [], [], []
        new, level_keys = F.__new__, TreePresentation._level_keys

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        def recording_level_keys(self, length, stage):
            lengths.append(length)
            stages.append(stage)
            return level_keys(self, length, stage)

        tree = make_tree()
        monkeypatch.setattr(F, "__new__", counting_new)
        monkeypatch.setattr(TreePresentation, "_level_keys", recording_level_keys)
        levels = [fat_level(tree, s) for s in range(13)]
        ends = [level_ends(tree, s, t) for s in range(13) for t in range(s, 13)]
        monkeypatch.undo()
        assert made == [] and len(ends) == 91
        assert lengths and max(lengths) <= tree.max_prune_len
        assert stages == list(range(max(tree.final_stage, tree.max_prune_len) + 1))
        assert len(levels[12].intervals) > 1

    def test_growth_lists_no_string(self, monkeypatch):
        """Survival is decided on keys: growing levels 0..12 of a pruned
        tree reads no `level` and codes no string with `_ternary_code`."""
        calls = []

        def recording(name, function):
            def recorded(*args):
                calls.append(name)
                return function(*args)

            return recorded

        tree = TreePresentation([("01", 2), ("110", 4), ("1", 9)])
        monkeypatch.setattr(TreePresentation, "level", recording("level", TreePresentation.level))
        monkeypatch.setattr(cantor, "_ternary_code", recording("code", cantor._ternary_code))
        levels = [fat_level(tree, s) for s in range(13)]
        monkeypatch.undo()
        assert calls == []
        assert len(levels[12].intervals) > 1


class TestCollectorPause:
    """`fat_level` leaves the caller's collector state as it found it, and
    no collection starts while it grows."""

    def test_the_real_collector_is_restored(self):
        assert gc.isenabled()
        fat_level(full_tree(), 6)
        assert gc.isenabled()
        gc.disable()
        try:
            fat_level(full_tree(), 6)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_no_collection_starts_while_growing(self):
        """Levels 0..12 of the full tree start no collection inside
        `fat_level`."""
        inside, collections = [False], []

        def counting(phase, info):
            if phase == "start" and inside[0]:
                collections.append(info["generation"])

        def entered(tree, s):
            inside[0] = True
            try:
                return fat_level(tree, s)
            finally:
                inside[0] = False

        gc.callbacks.append(counting)
        try:
            tree = full_tree()
            levels = [entered(tree, s) for s in range(13)]
        finally:
            gc.callbacks.remove(counting)
        assert len(levels[12].intervals) == 2**12
        assert collections == []


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_PRUNES = [
    [tuple(entry) for entry in json.loads(path.read_text())["P"]["prune"]]
    for path in sorted(CONFIGS.glob("*.json"))
    if "P" in json.loads(path.read_text())
]
# one string so long that its 2^30 cousins must never be enumerated
LONG_PRUNE = [("0" * 30, 0)]
# schedules as criterion 3 draws them: up to 8 strings of length 1..8, each
# pruned after a stage in 0..10
SCHEDULES = st.lists(
    st.tuples(st.text("01", min_size=1, max_size=8), st.integers(0, 10)), max_size=8
)

# up to 4 strings of length 0..8, each pruned after a stage in 0..10
ROOTED_SCHEDULES = st.lists(st.tuples(st.text("01", max_size=8), st.integers(0, 10)), max_size=4)


@st.composite
def climbing_schedules(draw):
    """Both children of a drawn string tau, and the sibling of every
    nonempty prefix of tau, each pruned after its own stage in 0..10, so
    the closure climbs pair by pair to the root, which is removed exactly
    from the stage after the last of them; then a drawn schedule, whose
    strings may be empty."""
    tau = draw(st.text("01", max_size=6))
    siblings = [tau[: k - 1] + "10"[int(tau[k - 1])] for k in range(1, len(tau) + 1)]
    climb = [(sigma, draw(st.integers(0, 10))) for sigma in [tau + "0", tau + "1", *siblings]]
    return climb + draw(ROOTED_SCHEDULES)


def criterion_3_schedules(seed: int, count: int) -> list[list[tuple[str, int]]]:
    """`count` schedules drawn with a seeded `random.Random` as criterion 3
    draws them: up to 8 strings of length 1..8, each pruned after a stage
    in 0..10.  Unlike criterion 3, schedules of empty trees are kept."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        prune = []
        for _ in range(rng.randint(0, 8)):
            length = rng.randint(1, 8)
            sigma = "".join(rng.choice("01") for _ in range(length))
            prune.append((sigma, rng.randint(0, 10)))
        out.append(prune)
    return out


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


def probe_strings(prune) -> list[str]:
    """Every string up to length 8, and each prefix of a pruned string with
    its two children."""
    out = {format(i, f"0{n}b") if n else "" for n in range(9) for i in range(1 << n)}
    for sigma, _ in prune:
        out.update(sigma[:k] + tail for k in range(len(sigma) + 1) for tail in ("", "0", "1"))
    return sorted(out)


def key_length(key: int) -> int:
    """The length n of the string whose key is 3^n + code, code < 3^n."""
    n = 0
    while 3 ** (n + 1) <= key:
        n += 1
    return n


class TestMatchesOracle:
    """`level`, `survives`, `is_empty`, `leftmost_path`, `fat_level` and
    `normalize_level` equal the code they replaced, each side on its own
    fresh tree; survival is the recursive closure kept in `tests/oracles.py`."""

    @settings(max_examples=12, deadline=None)
    @given(prune=SCHEDULES, stage=st.integers(0, 14))
    @with_config_prunes(stage=14)
    @example(prune=LONG_PRUNE, stage=1)
    def test_level(self, prune, stage):
        tree, old = TreePresentation(prune), TreePresentation(prune)
        for length in range(15):
            assert tree.level(length, stage) == oracles.level(old, length, stage)

    @settings(max_examples=40, deadline=None)
    @given(prune=st.one_of(SCHEDULES, ROOTED_SCHEDULES, climbing_schedules(), st.just([])))
    @with_config_prunes()
    @example(prune=LONG_PRUNE)
    @example(prune=[("00", 1), ("01", 6), ("1", 3)])
    @example(prune=[("10", 4), ("0", 9), ("11", 2), ("", 7)])
    def test_survival_readers_at_every_stage(self, prune):
        tree, old = TreePresentation(prune), TreePresentation(prune)
        strings = probe_strings(prune)
        for stage in range(tree.final_stage + 2):
            assert tree.is_empty(stage) == oracles.is_empty(old, stage)
            for sigma in strings:
                assert tree.survives(sigma, stage) == oracles.survives(old, sigma, stage), sigma
            for depth in range(15):
                try:
                    expected = oracles.leftmost_path(old, stage, depth)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        leftmost_path(tree, stage, depth)
                else:
                    assert leftmost_path(tree, stage, depth) == expected

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
                intervals = fat_level(tree, s).intervals
                assert as_ints(intervals) == expected
                for end in (v for iv in intervals for v in iv):
                    assert type(end) is F and end.denominator == 3 ** (s + 2)
                    assert math.gcd(end.numerator, end.denominator) == 1

    def test_fat_levels_0_to_12_of_40_drawn_schedules(self):
        """Levels 0..12, built ascending on one tree and descending on
        another, have the oracle's integer ends or raise its message."""
        for prune in criterion_3_schedules(seed=2026, count=40):
            old = TreePresentation(prune)
            expected = {}
            for s in range(13):
                try:
                    expected[s] = as_ints(oracles.fat_level(old, s).intervals)
                except ValueError as exc:
                    expected[s] = str(exc)
            for order in (range(13), range(12, -1, -1)):
                tree = TreePresentation(prune)
                for s in order:
                    try:
                        intervals = fat_level(tree, s).intervals
                    except ValueError as exc:
                        assert str(exc) == expected[s], (prune, s)
                        continue
                    ends = as_ints(intervals)
                    assert ends == expected[s], (prune, s)
                    assert {type(end) for iv in intervals for end in iv} == {F}
                    # over a power of 3, lowest terms means a numerator prime to 3
                    den = 3 ** (s + 2)
                    assert all(d0 == d1 == den and n0 % 3 and n1 % 3 for n0, d0, n1, d1 in ends)

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
        """Fat levels 0..12 build one removed set per stage up to
        `final_stage` at most, and no set holds a string past the horizon."""
        tree = TreePresentation(prune)
        for s in range(13):
            with contextlib.suppress(ValueError):  # an empty level is walked all the same
                fat_level(tree, s)
        assert len(tree._removed_sets) <= tree.final_stage + 1
        members = [key for removed in tree._removed_sets.values() for key in removed]
        assert all(key_length(key) <= tree.max_prune_len for key in members)

    def test_a_long_prune_keeps_its_removed_set_small(self):
        """No level below a long pruned string is enumerated."""
        tree = TreePresentation(LONG_PRUNE)
        levels = [fat_level(tree, s) for s in range(13)]
        assert len(levels[12].intervals) == 2**12
        assert all(len(removed) <= 31 for removed in tree._removed_sets.values())


class TestSymmetrize:
    """`oracles.symmetrize`, which the fan tests draw their symmetric trees
    from, makes mirror-symmetric trees and keeps symmetric ones as they are."""

    def _is_symmetric(self, tree, depth=8):
        for length in range(depth):
            for stage in range(depth):
                lvl = tree.level(length, stage)
                assert sorted(flip_bits(s) for s in lvl) == lvl

    def test_full_tree_unchanged(self):
        sym = oracles.symmetrize(full_tree())
        for s in range(5):
            assert fat_level(sym, s).intervals == fat_level(full_tree(), s).intervals

    def test_single_path_becomes_mirror_pair(self):
        single_path = TreePresentation([("0" * k + "1", 0) for k in range(10)])
        sym = oracles.symmetrize(single_path)
        self._is_symmetric(sym)
        for s in range(9):
            lvl = fat_level(sym, s)
            assert lvl.l_minus + lvl.r_plus == 1

    def test_idempotent_on_symmetric(self):
        base = oracles.symmetrize(TreePresentation([("0" * k + "1", 0) for k in range(8)]))
        again = oracles.symmetrize(base)
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
