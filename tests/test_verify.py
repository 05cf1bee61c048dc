"""Checkers: reports, negative controls, bound resolution."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import planarpi.geom as geom
import planarpi.verify as verify
from planarpi.cantor import TreePresentation
from planarpi.cesets import EnumerationScript
from planarpi.cli import CONSTRUCTIONS, main
from planarpi.continua.dendrite import build_dendrite_d, cut_ball
from planarpi.continua.fanq import DestinationTrack, TouchEdge, q_snapshots
from planarpi.continua.regions import DOWN, LEFT, RIGHT, UP
from planarpi.balls import ball_polygon
from planarpi.geom import (
    RegionSnapshot,
    connectivity_components,
    rect,
    segment,
    subtract_poly,
)
from planarpi.verify import (
    CheckReport,
    PieceGraph,
    check_connectivity,
    check_cut_dichotomy,
    check_hausdorff_bound,
    check_nesting,
    check_touch_chain,
    exit_code,
    reports_to_json,
)


def cut_report(config: dict, stage: int) -> CheckReport:
    """cut-dichotomy at one stage, through the construction table."""
    construction = CONSTRUCTIONS[config["construction"]]
    (snap,), _ = construction.snapshots(config, stage, stage)
    probes = construction.cut_probes(config, snap)
    return check_cut_dichotomy(config["construction"], snap, probes)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_snapshot_probes(name: str, stage: int):
    """The sample config's snapshot at one stage and its cut probes."""
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    construction = CONSTRUCTIONS[name]
    (snap,), _ = construction.snapshots(config, stage, stage)
    return snap, list(construction.cut_probes(config, snap))


def full_pass_cut_report(builder: str, snap: RegionSnapshot, probes) -> CheckReport:
    """cut-dichotomy by one full subtract-and-count pass per probe."""
    stages = (snap.stage, snap.stage)
    for label, shape, expected in probes:
        observed = len(connectivity_components(subtract_poly(snap, shape))) > 1
        if expected != observed:
            witness = {**label, "expected_cut": expected, "observed_cut": observed}
            return CheckReport(f"cut-dichotomy-{builder}", stages, "fail", witness)
    return CheckReport(f"cut-dichotomy-{builder}", stages, "pass")


def two_branch_tree(depth: int = 12) -> TreePresentation:
    entries = []
    for k in range(1, depth):
        entries.append(("0" * k + "1", 0))
        entries.append(("1" * k + "0", 0))
    return TreePresentation(entries)


class TestNesting:
    def test_constant_builder_passes(self):
        snaps = [RegionSnapshot(s, [rect(0, 0, 1, 1)]) for s in range(3)]
        assert check_nesting(snaps).verdict == "pass"

    def test_q_builder_with_injuries_passes(self):
        tree = two_branch_tree()
        track = DestinationTrack([(1, 4), (2, 2), (3, 6), (4, 1), (5, 8), (6, 11)])
        snaps, _ = q_snapshots(6, tree, track)
        assert check_nesting(snaps).verdict == "pass"

    def test_mutated_stage_fails_with_witness(self):
        snaps = [
            RegionSnapshot(0, [rect(0, 0, 1, 1)]),
            RegionSnapshot(1, [rect(0, 0, 1, F(9, 8))]),  # grows: corrupted
        ]
        report = check_nesting(snaps)
        assert report.verdict == "fail"
        assert report.witness is not None

    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            CheckReport("x", (0, 1), "fail", None)


class TestCutDichotomy:
    def test_dendrite_d_pass(self):
        config = {"construction": "dendrite-d", "A": [[1, 1], [3, 3], [5, 5]]}
        report = cut_report(config, 6)
        assert report.verdict == "pass"

    def test_dendrite_d_empty_script(self):
        report = cut_report({"construction": "dendrite-d", "A": []}, 4)
        assert report.verdict == "pass"  # no cut ever disconnects

    def test_dendroid_k_figure_script(self):
        family = [{"name": "V0", "triples": [[n, 2, 2] for n in range(12)]}]
        report = cut_report({"construction": "dendroid-k", "families": family}, 3)
        assert report.verdict == "pass"

    def test_wrong_expectation_fails_with_witness(self):
        # negative control: rising 1 is gated, so its ball does cut
        snap = build_dendrite_d(3, EnumerationScript([(1, 1)]))
        probes = [({"t": 1}, ball_polygon(cut_ball(1)), False)]
        report = check_cut_dichotomy("dendrite-d", snap, probes)
        assert report.verdict == "fail"
        assert report.witness == {"t": 1, "expected_cut": False, "observed_cut": True}


    # dendrite-h stops at stage 6: its stages 7 and 8 hold 1,804 and 4,109
    # pieces, and the full passes there take ~20 s
    @pytest.mark.parametrize(
        "name,stage",
        [("dendrite-d", s) for s in range(9)]
        + [("dendrite-h", s) for s in range(7)]
        + [("dendroid-k", s) for s in range(9)],
    )
    def test_piece_graph_counts_match_full_pass(self, name, stage):
        snap, probes = config_snapshot_probes(name, stage)
        graph = PieceGraph(snap)
        for _, shape, _ in probes:
            full = len(connectivity_components(subtract_poly(snap, shape)))
            assert graph.components_without(shape) == full

    def test_some_sample_probes_expect_a_cut(self):
        for name, stage in (("dendrite-d", 8), ("dendroid-k", 8)):
            _, probes = config_snapshot_probes(name, stage)
            expected = [e for _, _, e in probes]
            assert any(expected) and not all(expected)

    @pytest.mark.parametrize("flip", [0, 3, 7, 12, 20])
    def test_wrong_expectation_matches_full_pass(self, flip):
        snap, probes = config_snapshot_probes("dendroid-k", 4)
        label, shape, expected = probes[flip]
        probes[flip] = (label, shape, not expected)
        report = check_cut_dichotomy("dendroid-k", snap, probes)
        assert report.verdict == "fail"
        assert report.witness["expected_cut"] == (not expected)
        assert report == full_pass_cut_report("dendroid-k", snap, probes)

    def test_intersection_tests_stay_few(self, tmp_path, monkeypatch):
        # the uncut graph is built once and only fragments are tested again;
        # one full pass per probe would make 12,357 tests here
        calls = []
        real = geom.polys_intersect
        for module in (geom, verify):
            monkeypatch.setattr(module, "polys_intersect", lambda a, b: calls.append(1) or real(a, b))
        argv = ["verify", "--config", str(CONFIGS / "dendroid-k.json"), "--checks",
                "cut-dichotomy", "--stage-range", "0:8", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert len(calls) <= 1000


# the touches of the stage-1 snake on `two_branch_tree()` and the track [(1, 4)]
CHAIN = [(None, 0, "←"), (0, 1, "←"), (1, 2, "↑"), (2, 3, "→"), (3, 4, "→"), (4, 5, "↑"),
         (5, 6, "←")]


class TestTouchChain:
    def test_pass_and_negative_control(self):
        tree = two_branch_tree()
        track = DestinationTrack([(1, 4), (2, 2)])
        _, graph = q_snapshots(2, tree, track)
        assert check_touch_chain(graph).verdict == "pass"
        # negative control: drop an edge so a block goes unreached
        graph.touches = graph.touches[:-1]
        assert check_touch_chain(graph) == CheckReport(
            "touch-chain", (0, 2), "fail", {"issue": "unreached blocks", "blocks": [26]}
        )

    @pytest.mark.parametrize(
        "edges, witness",
        [
            # (src, dst, direction) rows that replace the chain's touches
            ([*CHAIN, (0, 5, "←")], {"block": 5, "issue": "two predecessors"}),
            ([*CHAIN[:-1], (4, 6, "←")], {"block": 4, "issue": "two successors"}),
            ([*CHAIN[1:], (6, 0, "→")], {"issue": "no first block"}),
            ([*CHAIN[:3], *CHAIN[4:], (6, 3, "→")],
             {"issue": "path does not cover blocks", "covered": 3}),
            ([(None, 1, "←"), (1, 0, "←"), (0, 2, "↑"), *CHAIN[3:]],
             {"issue": "precedence violates creation stages", "at": 0}),
            ([CHAIN[0], (0, 1, "→"), *CHAIN[2:]],
             {"issue": "touch conditions fail", "edge": [0, 1, "→"], "stage": 1}),
        ],
        ids=["two-predecessors", "two-successors", "no-first-block", "uncovered",
             "precedence", "touch-conditions"],
    )
    def test_failure_witnesses(self, edges, witness):
        # the stage-1 snake is the chain None -> 0 -> 1 -> ... -> 6
        _, graph = q_snapshots(1, two_branch_tree(), DestinationTrack([(1, 4)]))
        assert [e.to_json() for e in graph.touches] == [list(e) for e in CHAIN]
        direction = {d.symbol: d for d in (LEFT, RIGHT, UP, DOWN)}
        graph.touches = [TouchEdge(a, b, direction[d]) for a, b, d in edges]
        assert check_touch_chain(graph) == CheckReport("touch-chain", (0, 1), "fail", witness)


class TestConnectivity:
    def test_fail_names_the_stage_and_its_components(self):
        fifths = [rect(F(i, 5), 0, F(i + 1, 5), 1) for i in range(5)]
        snaps = [
            RegionSnapshot(3, [rect(0, 0, 1, 1)]),
            RegionSnapshot(4, fifths[:3]),
            RegionSnapshot(5, fifths[::2]),
        ]
        report = check_connectivity(snaps)
        assert report == CheckReport("connectivity", (3, 5), "fail", {"stage": 5, "components": 3})


class TestHausdorffBound:
    def test_d_vs_left_half_resolves_half(self):
        from planarpi.geom import clip_halfplane

        script = EnumerationScript([(1, 1), (3, 3), (5, 5)])
        snap = build_dendrite_d(8, script)
        clipped = [clip_halfplane(p, 1, 0, 0) for p in snap.pieces]
        left = RegionSnapshot(8, [p for p in clipped if p is not None], snap.frame)
        report = check_hausdorff_bound(snap, left, F(1, 2), ">=", 8)
        assert report.verdict == "pass"

    def test_identical_fails_lower_bound(self):
        snap = RegionSnapshot(0, [rect(0, 0, 1, 1)])
        report = check_hausdorff_bound(snap, snap, 1, ">=", 8)
        assert report.verdict == "fail"

    def test_exact_distance_resolves_at_its_own_bound(self):
        a = RegionSnapshot(0, [segment((0, 0), (1, 0))])
        b = RegionSnapshot(0, [segment((0, 1), (1, 1))])
        report = check_hausdorff_bound(a, b, 1, ">=", 10)
        assert report.verdict == "pass"

    def test_inconclusive_when_bound_inside(self):
        from planarpi.geom import hausdorff_enclosure, point

        a = RegionSnapshot(0, [point(0, 0)])
        b = RegionSnapshot(0, [point(1, 1)])  # distance sqrt(2), irrational
        enc = hausdorff_enclosure(a, b, 10)
        assert enc.low < enc.high
        mid = (enc.low + enc.high) / 2
        report = check_hausdorff_bound(a, b, mid, ">=", 10)
        assert report.verdict == "inconclusive"

    def test_upper_sense(self):
        a = RegionSnapshot(0, [segment((0, 0), (1, 0))])
        b = RegionSnapshot(0, [segment((0, 1), (1, 1))])
        assert check_hausdorff_bound(a, b, 2, "<=", 10).verdict == "pass"
        assert check_hausdorff_bound(a, b, F(1, 2), "<=", 10).verdict == "fail"


class TestReports:
    def test_json_and_exit_code(self):
        passing = CheckReport("a", (0, 1), "pass")
        failing = CheckReport("b", (0, 1), "fail", {"stage": 0})
        blob = reports_to_json([passing, failing])
        assert '"verdict": "fail"' in blob
        assert exit_code([passing]) == 0
        assert exit_code([passing, failing]) == 1

    def test_reports_reproducible(self):
        config = {"construction": "dendrite-d", "A": [[1, 1]]}
        r1 = cut_report(config, 3)
        r2 = cut_report(config, 3)
        assert reports_to_json([r1]) == reports_to_json([r2])


def test_fan_nesting_makes_no_convex_difference(monkeypatch):
    # every stage-(s+1) piece of the fan lies in one stage-s piece, so
    # containment accepts each by its vertices
    config = json.loads((CONFIGS / "cantor-fan-q.json").read_text())
    snaps, _ = CONSTRUCTIONS["cantor-fan-q"].snapshots(config, 0, 6)

    def no_difference(a, b):
        raise AssertionError("convex_difference called")

    monkeypatch.setattr(geom, "convex_difference", no_difference)
    assert check_nesting(snaps).verdict == "pass"
