"""Acceptance suite: the finite-stage facts the limit arguments rely on.

Every criterion runs at its stated tolerance; one pass/fail line per
criterion is printed in the terminal summary.  All "incomputable" inputs are
deterministic scripts.
"""

import json
import random
import time
from fractions import Fraction as F

from planarpi.cantor import TreePresentation, fat_level, full_tree, pad_eps
from planarpi.cesets import EnumerationScript, FamilyMember, SequenceFamily, limit_f
from planarpi.cli import main
from planarpi.continua.comb import build_dendroid_k, comb_cut_box, comb_width
from planarpi.continua.dendrite import build_dendrite_d, cut_ball
from planarpi.continua.examples import basic_dendrite, cantor_fan, harmonic_comb
from planarpi.continua.fanq import DestinationTrack, q_snapshots
from planarpi.continua.regions import normalize_level, v_region
from planarpi.continua.trees import (
    PlottedTreePresentation,
    build_dendrite_h,
    plotted_tree,
    probe_balls,
    recover_tree,
)
from planarpi.balls import subtract_ball
from planarpi.geom import (
    RegionSnapshot,
    clip_halfplane,
    connectivity_components,
    hausdorff_enclosure,
    point,
    rect,
    region_covers,
    segment,
    subtract_poly,
)
from planarpi.svg import count_elements, render_svg
from planarpi.verify import (
    check_hausdorff_bound,
    check_nesting,
    check_touch_chain,
)

from oracles import brute_force_limit_f


def two_branch_tree(depth: int = 12) -> TreePresentation:
    entries = []
    for k in range(1, depth):
        entries.append(("0" * k + "1", 0))
        entries.append(("1" * k + "0", 0))
    return TreePresentation(entries)


def all_strings_upto(depth):
    out = [""]
    for length in range(1, depth + 1):
        out.extend(format(i, f"0{length}b") for i in range(1 << length))
    return out


def test_criterion_1_dendrite_cut_dichotomy():
    """Cuts disconnect exactly at the enumerated indices; runtime < 5 s."""
    started = time.monotonic()
    script = EnumerationScript([(1, 1), (3, 3), (5, 5)])
    snapshot = build_dendrite_d(10, script)
    assert len(connectivity_components(snapshot)) == 1
    for t in range(11):
        cut = subtract_ball(snapshot, cut_ball(t))
        components = len(connectivity_components(cut))
        if t in (1, 3, 5):
            assert components == 2, t
        else:
            assert components == 1, t
    assert time.monotonic() - started < 5.0


def test_criterion_2_probe_ball_round_trip():
    """recoverTree inverts plotting for 50 random schedules; negative balls
    of distinct strings up to length 6 are pairwise disjoint (exact)."""
    rng = random.Random(20260810)
    depth = 6
    done = 0
    while done < 50:
        prune = []
        for _ in range(rng.randint(1, 7)):
            length = rng.randint(1, 7)
            sigma = "".join(rng.choice("01") for _ in range(length))
            prune.append((sigma, rng.randint(0, 7)))
        tree = TreePresentation(prune)
        if tree.is_empty(9):
            continue
        done += 1
        stage = tree.final_stage
        presentation = PlottedTreePresentation(tree, depth=depth)
        recovered = recover_tree(presentation, stage, depth)
        expected = sorted(
            (s for s in all_strings_upto(depth) if tree.survives(s, stage)),
            key=lambda s: (len(s), s),
        )
        assert list(recovered.strings) == expected
    specs = [probe_balls(s)[0] for s in all_strings_upto(6)]
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            a, b = specs[i], specs[j]
            gap2 = (a.center[0] - b.center[0]) ** 2 + (a.center[1] - b.center[1]) ** 2
            assert gap2 > (a.radius + b.radius) ** 2


def test_criterion_3_fat_cantor_invariants():
    """Sibling disjointness, nesting, margin invariant: s <= 12, 25 schedules."""
    started = time.monotonic()
    rng = random.Random(1234)
    done = 0
    while done < 25:
        prune = []
        for _ in range(rng.randint(0, 8)):
            length = rng.randint(1, 8)
            sigma = "".join(rng.choice("01") for _ in range(length))
            prune.append((sigma, rng.randint(0, 10)))
        tree = TreePresentation(prune)
        if tree.is_empty(14):
            continue
        done += 1
        levels = [fat_level(tree, s) for s in range(13)]
        for lvl in levels:
            for (a0, b0), (a1, b1) in zip(lvl.intervals, lvl.intervals[1:]):
                assert b0 < a1
        for prev, nxt in zip(levels, levels[1:]):
            # both interval lists are sorted: one linear merge-walk
            idx = 0
            for lo, hi in nxt.intervals:
                while idx < len(prev.intervals) and prev.intervals[idx][1] < hi:
                    idx += 1
                assert idx < len(prev.intervals)
                plo, phi = prev.intervals[idx]
                assert plo <= lo and hi <= phi
        for s in range(13):
            for t in range(s, 13):
                assert levels[t].l_minus >= levels[s].l_minus + pad_eps(s) - pad_eps(t)
                assert levels[t].r_plus <= levels[s].r_plus - pad_eps(s) + pad_eps(t)
    assert time.monotonic() - started < 10.0


def test_criterion_4_e_state_construction():
    """Stabilized limit function lands in the scripted cofinite sets and
    dominates scripted total functions, against the exhaustive oracle."""
    bound = 200
    top = 30

    def tails_member(name, g, stage):
        triples = tuple(
            (n, stage, x) for n in range(top + 1) for x in range(g(n), bound + 1)
        )
        return FamilyMember(name, triples)

    fam = SequenceFamily(
        [
            tails_member("V0", lambda n: n, 1),
            tails_member("V1", lambda n: 2 * n, 3),
            FamilyMember("V2", tuple((n, 2, 7) for n in range(top + 1))),
            FamilyMember("V3", ()),
        ]
    )
    stage = 6
    stabilized = {}
    for n in range(top + 1):
        value = limit_f(fam, n, stage, bound)
        assert value == brute_force_limit_f(fam, n, stage, bound)
        assert value == limit_f(fam, n, stage + 5, bound)  # stabilized
        stabilized[n] = value
    # U_n = {x >= n} realized by V0: f(n) lands there from a threshold on
    threshold = next(
        n for n in range(top + 1) if all(stabilized[m] >= m for m in range(n, top + 1))
    )
    assert threshold <= 8
    for n in range(threshold, top + 1):
        assert stabilized[n] >= n
    # domination for 5 scripted total functions
    gs = [
        lambda n: n + 1,
        lambda n: 2 * n,
        lambda n: 3 * n + 2,
        lambda n: n * n // 4,
        lambda n: 5 * n,
    ]
    for idx, g in enumerate(gs):
        gf = SequenceFamily([tails_member(f"G{idx}", g, 1)])
        for n in range(top + 1):
            if g(n) <= bound:
                value = limit_f(gf, n, 4, bound)
                assert value >= g(n), (idx, n)


def test_criterion_5_cantor_fan_machine():
    """Nesting, connectivity, simple touch chain, containment facts, and the
    straight-block product structure through two injuries; runtime < 60 s."""
    started = time.monotonic()
    tree = two_branch_tree()
    track = DestinationTrack([(1, 4), (2, 2), (3, 6), (4, 1), (5, 8), (6, 11)])
    injured_at = []
    for s in range(6):
        g0, g1 = track.gamma(s)
        h0, h1 = track.gamma(s + 1)
        if not (g0 <= h0 and h1 <= g1):
            injured_at.append(s + 1)
    assert injured_at == [2, 4]
    snaps, graph = q_snapshots(6, tree, track)
    for a, b in zip(snaps, snaps[1:]):
        ok, witness = region_covers(a.pieces, b.pieces)
        assert ok, (b.stage, witness)
    for snap in snaps:
        assert len(connectivity_components(snap)) == 1, snap.stage
    report = check_touch_chain(graph)
    assert report.verdict == "pass", report.witness
    # non-injured sublemmas: the two end-box corners sit inside the end box,
    # and every other new block sits inside the union of the previous stage
    # bodies (established exactly by the nesting loop above); injured-case
    # returns sit inside their hosts:
    for blk in graph.blocks:
        if blk.creation_stage == 0:
            continue
        s = blk.creation_stage - 1
        body = blk.body_at(tree, blk.creation_stage)
        if blk.host_id is not None:
            host_body = graph.block(blk.host_id).body_at(tree, s)
            ok, witness = region_covers(host_body, body)
            assert ok, (blk.id, witness)
    # first two corner blocks of each stage inside that stage's end box
    for s in range(6):
        end_body = graph.end_boxes[s].body_at(tree, s)
        corners = [
            b
            for b in graph.blocks
            if b.creation_stage == s + 1 and b.kind == "corner" and b.host_id is None
        ][:2]
        assert len(corners) == 2
        for blk in corners:
            ok, witness = region_covers(end_body, blk.body_at(tree, s + 1))
            assert ok, (blk.id, witness)
    # straight-block bodies are exactly one rectangle per normalized interval
    for blk in graph.blocks:
        if blk.kind != "straight":
            continue
        for t in range(blk.creation_stage, 7):
            expected = len(normalize_level(tree, blk.frame_stage, t))
            assert len(blk.body_at(tree, t)) == expected
    assert time.monotonic() - started < 60.0


def test_criterion_6_dendroid_k():
    """Figure script at stage 8: connected; cuts disconnect exactly where
    the rising width is positive."""
    triples = tuple((n, 2, 2) for n in range(12))
    fam = SequenceFamily([FamilyMember("V0", triples)])
    stage = 8
    snapshot = build_dendroid_k(stage, fam)
    assert len(connectivity_components(snapshot)) == 1
    bound = max(stage, len(fam.members))
    for t in range(stage + 1):
        for u in range(stage + 1):
            expected = comb_width(fam, t, u, stage, bound) > 0
            cut = subtract_poly(snapshot, comb_cut_box(t, u))
            observed = len(connectivity_components(cut)) > 1
            assert expected == observed, (t, u)


def test_criterion_7_hausdorff_enclosures():
    """Certified enclosures at width 2^-12 and the bound checker."""
    seg_a = RegionSnapshot(0, [segment((0, 0), (1, 0))])
    seg_b = RegionSnapshot(0, [segment((0, 1), (1, 1))])
    enc = hausdorff_enclosure(seg_a, seg_b, 12)
    assert enc.low <= 1 <= enc.high and enc.width() <= F(1, 1 << 12)
    pt = RegionSnapshot(0, [point(0, 0)])
    square = RegionSnapshot(0, [rect(0, 0, 1, 1)])
    enc = hausdorff_enclosure(pt, square, 12)
    assert enc.low**2 <= 2 <= enc.high**2 and enc.width() <= F(1, 1 << 12)
    script = EnumerationScript([(1, 1), (3, 3), (5, 5)])
    snap = build_dendrite_d(8, script)
    assert hausdorff_enclosure(snap, snap, 12).low == 0
    clipped = [clip_halfplane(p, 1, 0, 0) for p in snap.pieces]
    left = RegionSnapshot(8, [p for p in clipped if p is not None], snap.frame)
    assert check_hausdorff_bound(snap, left, F(1, 2), ">=", 12).verdict == "pass"


def test_criterion_8_determinism_and_negative_controls(tmp_path):
    """Byte-identical reruns for build/verify/render; mutations must fail."""
    q_config = {
        "construction": "cantor-fan-q",
        "stage": 3,
        "P": {
            "prune": [["0" * k + "1", 0] for k in range(1, 9)]
            + [["1" * k + "0", 0] for k in range(1, 9)]
        },
        "B": [[1, 4], [2, 2], [3, 6]],
    }
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps(q_config))
    outs = []
    for tag in ("a", "b"):
        scene = tmp_path / f"scene-{tag}.json"
        svg = tmp_path / f"scene-{tag}.svg"
        report = tmp_path / f"report-{tag}.json"
        assert main(["build", "--config", str(cfg), "--out", str(scene)]) == 0
        assert main(["render", "--scene", str(scene), "--out", str(svg)]) == 0
        assert (
            main(
                [
                    "verify",
                    "--config",
                    str(cfg),
                    "--checks",
                    "nesting,touch-chain",
                    "--stage-range",
                    "0:3",
                    "--out",
                    str(report),
                ]
            )
            == 0
        )
        outs.append((scene.read_bytes(), svg.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]
    # negative controls
    grown = [
        RegionSnapshot(0, [rect(0, 0, 1, 1)]),
        RegionSnapshot(1, [rect(0, 0, 1, 2)]),
    ]
    assert check_nesting(grown).verdict == "fail"
    tree = two_branch_tree()
    _, graph = q_snapshots(2, tree, DestinationTrack([(1, 4), (2, 2)]))
    graph.touches = graph.touches[:-1]
    assert check_touch_chain(graph).verdict == "fail"
    same = RegionSnapshot(0, [rect(0, 0, 1, 1)])
    assert check_hausdorff_bound(same, same, 1, ">=", 10).verdict == "fail"


def test_criterion_9_figure_smoke_suite():
    """SVG renders complete with the piece counts the builders report."""
    script = EnumerationScript([(1, 1), (3, 3)])
    triples = tuple((n, 2, 2) for n in range(12))
    fam = SequenceFamily([FamilyMember("V0", triples)])
    tree = two_branch_tree()
    track = DestinationTrack([(1, 4), (2, 2)])
    q_snapshot, q_graph = (lambda pair: pair)(
        __import__("planarpi.continua.fanq", fromlist=["build_cantor_fan_q"]).build_cantor_fan_q(
            2, tree, track
        )
    )
    h_region = build_dendrite_h(2, script, full_tree())
    scenes = {
        "basic-dendrite": basic_dendrite(4),
        "harmonic-comb": harmonic_comb(3),
        "cantor-fan": cantor_fan(2),
        "plotted-tree": plotted_tree(full_tree(), 0, 3),
        "dendrite-d": build_dendrite_d(4, script),
        "corner-region": RegionSnapshot(
            0, v_region("ll", [(F(1, 6), F(1, 2))], 0, 0, 1, 1)
        ),
        "dendroid-k": build_dendroid_k(2, fam),
        "block-example": RegionSnapshot(
            0,
            [
                rect(5, 0, 11, 5),
                rect(0, 0, 5, 5),
                rect(0, -5, 5, 0),
                rect(5, -5, 9, 0),
            ],
            frame=(-16, -16, 16, 16),
        ),
        "dendrite-h": h_region,
        "cantor-fan-q": q_snapshot,
    }
    for name, region in scenes.items():
        svg = render_svg(region, 512)
        counts = count_elements(svg)
        rendered = counts["path"] + counts["line"] + counts["circle"]
        assert rendered == len(region.pieces), name
        assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")
    # a few builder-derived exact counts
    assert len(scenes["basic-dendrite"].pieces) == 6
    assert len(scenes["harmonic-comb"].pieces) == 5
    assert len(scenes["cantor-fan"].pieces) == 8
    assert len(scenes["plotted-tree"].pieces) == 14
    assert len(scenes["dendrite-d"].pieces) == 12
    assert len(scenes["corner-region"].pieces) == 2
    assert len(scenes["block-example"].pieces) == 4
