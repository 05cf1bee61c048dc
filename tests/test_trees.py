"""Plotted trees, probe balls, recovery round-trips, and the tree dendrite."""

import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from planarpi.cantor import TreePresentation, full_tree
from planarpi.cesets import EnumerationScript
from planarpi.continua.trees import (
    build_dendrite_h,
    h_cut_box,
    plot_point,
    plotted_tree,
    probe_balls,
    recover_tree,
)
from planarpi.geom import (
    ConvexPoly,
    RegionSnapshot,
    connectivity_components,
    region_covers,
    segment,
    squared_distance,
    subtract_poly,
)


def all_strings_upto(depth):
    out = [""]
    for length in range(1, depth + 1):
        out.extend(format(i, f"0{length}b") for i in range(1 << length))
    return out


def random_schedule(rng, depth=7, entries=5):
    prune = []
    for _ in range(entries):
        length = rng.randint(1, depth)
        sigma = "".join(rng.choice("01") for _ in range(length))
        prune.append((sigma, rng.randint(0, depth)))
    return TreePresentation(prune)


class TestPlotPoint:
    def test_root(self):
        assert plot_point("") == (F(1, 2), F(1))

    def test_one(self):
        assert plot_point("1") == (F(5, 6), F(1, 2))

    def test_zero_one(self):
        assert plot_point("01") == (F(5, 18), F(1, 4))

    def test_level_order_matches_layout(self):
        # left subtree left of right subtree at each level
        for length in range(1, 6):
            xs = [plot_point(format(i, f"0{length}b"))[0] for i in range(1 << length)]
            assert xs == sorted(xs)

    def test_bad_string_raises_every_time(self):
        # plot_point is memoized; a raised error is not cached
        for _ in range(2):
            with pytest.raises(ValueError):
                plot_point("012")


class TestProbeBalls:
    def test_minus_root(self):
        minus, plus = probe_balls("")
        assert minus.center == (F(1, 2), F(1))
        assert minus.radius == F(1, 4)
        assert plus is None

    def test_minus_balls_pairwise_disjoint(self):
        specs = [probe_balls(s)[0] for s in all_strings_upto(6)]
        for i in range(len(specs)):
            for j in range(i + 1, len(specs)):
                a, b = specs[i], specs[j]
                d2 = (a.center[0] - b.center[0]) ** 2 + (a.center[1] - b.center[1]) ** 2
                assert d2 > (a.radius + b.radius) ** 2

    def test_plus_ball_meets_only_its_edge(self):
        _, plus = probe_balls("0")
        center = ConvexPoly([plus.center])
        r2 = plus.radius * plus.radius
        for sigma in all_strings_upto(6):
            if not sigma:
                continue
            edge = segment(plot_point(sigma[:-1]), plot_point(sigma))
            d2 = squared_distance(center, edge)
            if sigma == "0":
                assert d2 < r2
            else:
                assert d2 >= r2


class TestPlottedTree:
    def test_full_tree_edge_count(self):
        region = plotted_tree(full_tree(), 0, 3)
        assert len(region.pieces) == 2 + 4 + 8

    def test_prune_drops_subtree(self):
        tree = TreePresentation([("1", 0)])
        region = plotted_tree(tree, 1, 3)
        assert len(region.pieces) == 1 + 2 + 4

    def test_connected(self):
        rng = random.Random(12)
        for _ in range(5):
            tree = random_schedule(rng, depth=5)
            if tree.is_empty(9):
                continue
            region = plotted_tree(tree, 9, 5)
            assert len(connectivity_components(region)) == 1


class TestRecoverTree:
    def test_full_tree_round_trip(self):
        recovered = recover_tree(plotted_tree(full_tree(), 0, 4), 4)
        assert list(recovered.strings) == sorted(
            all_strings_upto(4), key=lambda s: (len(s), s)
        )

    def test_pruned_subtree_omitted(self):
        tree = TreePresentation([("1", 0)])
        recovered = recover_tree(plotted_tree(tree, tree.final_stage, 4), 4)
        assert all(not s.startswith("1") for s in recovered.strings)
        assert "0" in recovered.strings

    def test_empty_region_flagged(self):
        recovered = recover_tree(RegionSnapshot(0, []), 3)
        assert recovered.strings == ("",)
        assert recovered.region_empty

    def test_round_trip_random_schedules(self):
        rng = random.Random(99)
        for _ in range(12):
            tree = random_schedule(rng, depth=6)
            if tree.is_empty(10):
                continue
            depth = 5
            stage = tree.final_stage
            recovered = recover_tree(plotted_tree(tree, stage, depth), depth)
            expected = [
                s
                for s in all_strings_upto(depth)
                if tree.survives(s, stage)
            ]
            assert list(recovered.strings) == sorted(
                expected, key=lambda s: (len(s), s)
            )

    def test_matches_exhaustive_scan(self):
        # the broad phase must keep every ball that some piece meets; fat
        # trees put pieces off the ball centres, where plotted edges run
        rng = random.Random(7)
        for _ in range(16):
            tree = random_schedule(rng, depth=6)
            depth = rng.randint(1, 5)
            stage = rng.randint(0, tree.final_stage)
            w, snap_depth = rng.choice([F(0), F(1, 8), F(1, 4), F(1, 2)]), rng.randint(1, 6)
            snapshot = oracles.fat_tree(tree, w, stage, snap_depth)
            pieces = snapshot.pieces
            hits = []
            for sigma in all_strings_upto(depth)[1:]:
                _, plus = probe_balls(sigma)
                center = ConvexPoly([plus.center])
                if any(squared_distance(center, piece) < plus.radius**2 for piece in pieces):
                    hits.append(sigma)
            recovered = recover_tree(snapshot, depth)
            assert recovered.strings == ("", *hits)
            assert recovered.region_empty == (not hits)


class TestFatTree:
    """The fat and placed trees of `tests/oracles.py`, whose pieces and
    placement the oracle tree dendrite is built from."""

    def test_zero_width_collapses(self):
        flat = oracles.fat_tree(full_tree(), F(0), 0, 3)
        plain = plotted_tree(full_tree(), 0, 3)
        ok, _ = region_covers(plain.pieces, flat.pieces)
        assert ok
        ok, _ = region_covers(flat.pieces, plain.pieces)
        assert ok

    def test_placed_bounding_box(self):
        w, c, t, q = F(1, 2), F(1, 4), 2, F(1, 16)
        region = oracles.placed_fat_tree(full_tree(), w, c, t, q, 0, 4)
        for piece in region.pieces:
            x0, y0, x1, y1 = piece.bbox()
            assert x0 >= c - q / 2 and x1 <= c + q / 2
            assert y0 >= F(1, 1 << (t + 1)) and y1 <= F(1, 1 << t)

    def test_root_maps_to_bottom_center(self):
        region = oracles.placed_fat_tree(full_tree(), F(0), F(1, 4), 2, F(1, 16), 0, 2)
        target = (F(1, 4), F(1, 8))
        assert any(oracles.contains_point(p, target) for p in region.pieces)

    def test_fat_tree_connected_full(self):
        region = oracles.fat_tree(full_tree(), F(1, 2), 0, 4)
        assert len(connectivity_components(region)) == 1


class TestDendriteH:
    SCRIPT = EnumerationScript([(1, 1), (3, 3)])

    def test_connected_every_stage(self):
        tree = full_tree()
        for stage in range(4):
            region = build_dendrite_h(stage, self.SCRIPT, tree)
            assert len(connectivity_components(region)) == 1, stage

    def test_enumerated_rising_is_fat_path(self):
        # t=1 enumerated at stage 1: a single fat path of depth `stage`
        # hangs over the rising: 2 copies per edge plus one tip cap, all
        # inside the probe window [3/8, 5/8] above the leg tops
        stage = 3
        region = build_dendrite_h(stage, self.SCRIPT, full_tree())
        x_lo, x_hi = F(3, 8), F(5, 8)
        tree_pieces = [
            p
            for p in region.pieces
            if p.bbox()[1] >= F(1, 4) and x_lo <= p.bbox()[0] and p.bbox()[2] <= x_hi
        ]
        assert len(tree_pieces) == 2 * stage + 1

    def test_unenumerated_rising_is_thin_full_tree(self):
        stage = 2
        region = build_dendrite_h(stage, self.SCRIPT, full_tree())
        # t=2 not enumerated: zero-width copy of the truncated full tree
        # (2 + 4 edges, the +- copies coincide, no caps)
        x_lo, x_hi = F(3, 16), F(5, 16)
        tree_pieces = [
            p
            for p in region.pieces
            if p.bbox()[1] >= F(1, 8) and x_lo <= p.bbox()[0] and p.bbox()[2] <= x_hi
        ]
        assert len(tree_pieces) == 2 + 4

    def test_cut_dichotomy(self):
        stage = 3
        region = build_dendrite_h(stage, self.SCRIPT, full_tree())
        for t in range(stage + 1):
            cut = subtract_poly(region, h_cut_box(t, stage))
            expected = 2 if t in (1, 3) else 1
            assert len(connectivity_components(cut)) == expected, t


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_DOCS = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]
CONFIG_PRUNES = [[tuple(e) for e in doc["P"]["prune"]] for doc in CONFIG_DOCS if "P" in doc]
CONFIG_SCRIPTS = [[tuple(e) for e in doc["A"]] for doc in CONFIG_DOCS if "A" in doc]
# schedules as criterion 3 draws them: up to 8 strings of length 1..8, each
# pruned after a stage in 0..10; scripts enumerate at most one element <= s
# at each stage s in 0..10
SCHEDULES = st.lists(
    st.tuples(st.text("01", min_size=1, max_size=8), st.integers(0, 10)), max_size=8
)
SCRIPTS = st.dictionaries(st.integers(0, 10), st.integers(0, 10), max_size=6).map(
    lambda rows: [(s, n % (s + 1)) for s, n in sorted(rows.items())]
)


def with_examples(examples):
    """Run a test on each of the given keyword sets as well as on drawn ones."""

    def add_examples(test):
        for kwargs in examples:
            test = example(**kwargs)(test)
        return test

    return add_examples


class TestFatTreesMatchOracle:
    """`build_dendrite_h` gives the pieces of the `Fraction` code it replaced,
    each side on its own fresh tree."""

    @settings(max_examples=4, deadline=None)
    @given(prune=SCHEDULES, script=SCRIPTS)
    @with_examples(
        dict(prune=prune, script=script)
        for prune, script in itertools.product(CONFIG_PRUNES, CONFIG_SCRIPTS)
    )
    def test_build_dendrite_h(self, prune, script):
        tree, old = TreePresentation(prune), TreePresentation(prune)
        for stage in range(9):
            try:
                expected = oracles.build_dendrite_h(stage, EnumerationScript(script), old)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    build_dendrite_h(stage, EnumerationScript(script), tree)
            else:
                got = build_dendrite_h(stage, EnumerationScript(script), tree)
                assert got.pieces == expected.pieces, stage


def test_dendrite_h_builds_no_hull(monkeypatch):
    # every piece of the tree dendrite goes through `ConvexPoly._convex`
    config = json.loads((CONFIGS / "dendrite-h.json").read_text())
    script = EnumerationScript.from_json(config["A"])
    tree = TreePresentation.from_json(config["P"])

    def no_hull(self, points):
        raise AssertionError("ConvexPoly.__init__ called")

    monkeypatch.setattr(ConvexPoly, "__init__", no_hull)
    assert build_dendrite_h(6, script, tree).pieces


# schedules with short strings, the empty one included, pruned at stages 0..7
SCHEDULES = st.lists(st.tuples(st.text("01", max_size=5), st.integers(0, 7)), max_size=5)


class TestMatchesReplacedPaths:
    """The plot point, the plotted tree, the probe balls and the recovery
    against the second implementations they replaced (`tests/oracles.py`)."""

    def test_plot_point(self):
        for sigma in all_strings_upto(8):
            assert plot_point(sigma) == oracles.base_plot_point(sigma)

    @settings(max_examples=40, deadline=None)
    @given(SCHEDULES)
    def test_plotted_tree(self, prune):
        # the width-0 fat tree against the tree's own segments, which fell
        # back to a root point when no edge survived
        tree = TreePresentation(prune)
        for stage in range(8):
            for depth in range(1, 6):
                got = plotted_tree(tree, stage, depth).to_json()
                assert got == oracles.plotted_tree(tree, stage, depth).to_json()

    def test_probe_balls(self):
        for sigma in all_strings_upto(8):
            assert probe_balls(sigma) == oracles.probe_balls(sigma)

    def test_recover_tree_on_config(self):
        config = json.loads((CONFIGS / "plotted-tree.json").read_text())
        tree = TreePresentation.from_json(config["P"])
        for stage in range(tree.final_stage + 2):
            snapshot = plotted_tree(tree, stage, config["depth"])
            for depth in range(1, config["depth"] + 2):
                got = recover_tree(snapshot, depth)
                assert (got.strings, got.region_empty) == oracles.recover_tree(snapshot, depth)

    def test_probes_make_no_hull(self, monkeypatch):
        # the probes measure from the centre as an integer triple, not from
        # a point piece made through the hull constructor
        tree = TreePresentation([("10", 0)])

        def no_hull(self, points):
            raise AssertionError("ConvexPoly.__init__ called")

        monkeypatch.setattr(ConvexPoly, "__init__", no_hull)
        probe_balls.cache_clear()  # so that every positive ball is sought again
        assert "11" in recover_tree(plotted_tree(tree, 0, 4), 4).strings
        assert "10" not in recover_tree(plotted_tree(tree, 1, 4), 4).strings
