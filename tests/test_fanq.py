"""The snake machine: stage 0, chains, injuries, and containment facts."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from planarpi.cantor import TreePresentation, fat_level, full_tree
from planarpi.cli import main
from planarpi.continua import fanq
from planarpi.continua.fanq import (
    BlockGraph,
    BlockRecord,
    DestinationTrack,
    TouchEdge,
    _edge_segment,
    build_cantor_fan_q,
    check_touch,
    q_snapshots,
)
from planarpi.continua.regions import DOWN, LEFT, RIGHT, UP
from planarpi.geom import (
    ConvexPoly,
    RegionSnapshot,
    _split_piece,
    bboxes_meet,
    connectivity_components,
    convex_intersection,
    rect,
    region_covers,
)
from planarpi.verify import check_touch_chain


def two_branch_tree(depth: int = 12) -> TreePresentation:
    """Symmetric presentation keeping exactly 0^k and 1^k (pruned at stage 0)."""
    entries = []
    for k in range(1, depth):
        entries.append(("0" * k + "1", 0))
        entries.append(("1" * k + "0", 0))
    return TreePresentation(entries)


INJURY_TRACK = [(1, 4), (2, 2), (3, 6), (4, 1), (5, 8), (6, 11)]


class TestDestinationTrack:
    def test_stage_zero_full_interval(self):
        track = DestinationTrack(INJURY_TRACK)
        assert track.gamma(0) == (F(1, 3), F(2, 3))

    def test_monotone_min(self):
        track = DestinationTrack(INJURY_TRACK)
        gmins = [track.gamma(s)[0] for s in range(7)]
        assert gmins == sorted(gmins)
        assert len(set(gmins)) == len(gmins)

    def test_bounds(self):
        track = DestinationTrack(INJURY_TRACK)
        for s in range(7):
            g0, g1 = track.gamma(s)
            assert F(1, 3) <= g0 <= g1 <= F(2, 3)

    def test_injury_pattern(self):
        track = DestinationTrack(INJURY_TRACK)
        injured = []
        for s in range(6):
            g0, g1 = track.gamma(s)
            h0, h1 = track.gamma(s + 1)
            injured.append(not (g0 <= h0 and h1 <= g1))
        assert injured == [False, True, False, True, False, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            DestinationTrack([(1, 0)])  # 0 is reserved for the tail
        with pytest.raises(ValueError):
            DestinationTrack([(1, 3), (2, 3)])  # repeated element

    @pytest.mark.parametrize(
        "rows", [[(3, 4), (7, 2)], [(2, 2), (1, 4)], [(1, 4), (1, 2)], [(0, 4), (1, 2)], [(2, 4)]]
    )
    def test_rows_are_stages_one_to_n_in_turn(self, rows):
        with pytest.raises(ValueError, match="in turn"):
            DestinationTrack(rows)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_fan(stage: int, name: str = "cantor-fan-q"):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    return TreePresentation.from_json(doc["P"]), DestinationTrack(doc["B"]), stage


SNAKE_TRACKS = {
    "cantor-fan-q.json": lambda: config_fan(6),
    "injury-track": lambda: (two_branch_tree(), DestinationTrack(INJURY_TRACK), 6),
    "partial-rollback": lambda: (
        two_branch_tree(), DestinationTrack([(1, 1), (2, 5), (3, 7), (4, 3)]), 4
    ),
    "full-tree": lambda: (full_tree(), DestinationTrack([(1, 4), (2, 2), (3, 6)]), 3),
}
# every stage of the injured config injures, so every retrace path runs
ALL_TRACKS = {
    **SNAKE_TRACKS,
    "cantor-fan-q-injured.json": lambda: config_fan(6, "cantor-fan-q-injured"),
}


@pytest.mark.parametrize("make", SNAKE_TRACKS.values(), ids=SNAKE_TRACKS.keys())
def test_snake_invariants(make):
    """One linear chain: block k is entered from block k-1 along its own d_in."""
    tree, track, stage = make()
    _, graph = build_cantor_fan_q(stage, tree, track)
    blocks = graph.blocks
    assert [b.id for b in blocks] == list(range(len(blocks)))
    assert [(e.src, e.dst) for e in graph.touches] == [
        (None if k == 0 else k - 1, k) for k in range(len(blocks))
    ]
    for e in graph.touches:
        assert e.direction == graph.block(e.dst).d_in
    for bid in (-1, len(blocks)):  # -1 is the id every end box carries
        with pytest.raises(KeyError):
            graph.block(bid)
    for b in blocks:
        if b.kind == "straight":
            assert b.d_out == b.d_in, b.id
        if b.creation_stage > 0:
            assert b.creation_stage == b.frame_stage + 1, b.id
    assert len(graph.end_boxes) == stage + 1
    assert all(e.kind == "end-box" for e in graph.end_boxes)
    assert all(b.kind != "end-box" for b in blocks)


class TestStageZero:
    def test_q0_is_single_box(self):
        tree = two_branch_tree()
        track = DestinationTrack(INJURY_TRACK)
        snapshot, graph = build_cantor_fan_q(0, tree, track)
        m = fat_level(tree, 0)
        box = RegionSnapshot(0, [rect(F(1, 3) - F(1, 3), m.l_minus, F(2, 3), m.r_plus)])
        assert region_covers(snapshot.pieces, box.pieces)[0]
        assert region_covers(box.pieces, snapshot.pieces)[0]
        assert len(graph.blocks) == 1
        assert len(graph.end_boxes) == 1


class TestNonInjuredChain:
    def test_six_blocks_and_directions(self):
        tree = two_branch_tree()
        track = DestinationTrack([(1, 4), (2, 7)])  # never injured
        _, graph = build_cantor_fan_q(2, tree, track)
        # stage block + 2 * 6 new blocks
        assert len(graph.blocks) == 13
        dirs = [e.direction for e in graph.touches[1:7]]
        assert dirs == [LEFT, UP, RIGHT, RIGHT, UP, LEFT]
        rep = check_touch_chain(graph)
        assert rep.verdict == "pass", rep.witness

    def test_new_blocks_inside_old_straight_and_end_box(self):
        tree = two_branch_tree()
        track = DestinationTrack([(1, 4), (2, 7)])
        _, graph = build_cantor_fan_q(1, tree, track)
        old = graph.blocks[0]
        end_box = graph.end_boxes[0]
        z_new = [b for b in graph.blocks if b.creation_stage == 1]
        assert len(z_new) == 6
        # corners 0,1 inside the end box; 2..5 inside the straight block body
        host_old = old.body_at(tree, 0)
        host_end = end_box.body_at(tree, 0)
        for blk in z_new[:2]:
            ok, _ = region_covers(host_end, blk.body_at(tree, 1))
            assert ok, blk.id
        for blk in z_new[2:]:
            ok, _ = region_covers(host_old, blk.body_at(tree, 1))
            assert ok, blk.id

    def test_new_end_box_inside_old_straight_body(self):
        tree = two_branch_tree()
        track = DestinationTrack([(1, 4), (2, 7)])
        _, graph = build_cantor_fan_q(1, tree, track)
        host_old = graph.blocks[0].body_at(tree, 0)
        ok, _ = region_covers(host_old, graph.end_boxes[1].body_at(tree, 1))
        assert ok

    def test_block_bodies_antitone(self):
        tree = two_branch_tree()
        track = DestinationTrack(INJURY_TRACK)
        _, graph = build_cantor_fan_q(4, tree, track)
        for blk in graph.blocks:
            for v in range(blk.creation_stage, 4):
                older = blk.body_at(tree, v)
                newer = blk.body_at(tree, v + 1)
                ok, witness = region_covers(older, newer)
                assert ok, (blk.id, v, witness)

    def test_new_blocks_avoid_next_straight_body(self):
        # union of Z(s,2..6) misses the shrunken old straight block
        tree = two_branch_tree()
        track = DestinationTrack([(1, 4)])
        _, graph = build_cantor_fan_q(1, tree, track)
        old = graph.blocks[0]
        shrunk = old.body_at(tree, 1)
        for blk in graph.blocks[3:]:
            for piece in blk.body_at(tree, 1):
                for host_piece in shrunk:
                    from planarpi.geom import convex_intersection

                    inter = convex_intersection(piece, host_piece)
                    assert inter is None or inter.dim() < 2


class TestInjuredStages:
    def test_rollback_host_returns(self):
        tree = two_branch_tree()
        track = DestinationTrack(INJURY_TRACK)
        _, graph = build_cantor_fan_q(2, tree, track)
        returns = [b for b in graph.blocks if b.host_id is not None]
        # retracing stage-1's six blocks: 3 per corner (x4) + 1 per straight (x2)
        assert len(returns) == 14
        by_host: dict[int, int] = {}
        for b in returns:
            by_host[b.host_id] = by_host.get(b.host_id, 0) + 1
        for host_id, count in by_host.items():
            host = graph.block(host_id)
            assert count == (3 if host.kind == "corner" else 1)

    def test_returns_inside_hosts(self):
        tree = two_branch_tree()
        track = DestinationTrack(INJURY_TRACK)
        _, graph = build_cantor_fan_q(4, tree, track)
        for blk in graph.blocks:
            if blk.host_id is None:
                continue
            host = graph.block(blk.host_id)
            s = blk.creation_stage - 1
            host_body = host.body_at(tree, s)
            ok, witness = region_covers(host_body, blk.body_at(tree, blk.creation_stage))
            assert ok, (blk.id, blk.host_id, witness)

    def test_corner_return_triple_order(self):
        tree = two_branch_tree()
        track = DestinationTrack(INJURY_TRACK)
        _, graph = build_cantor_fan_q(2, tree, track)
        # find a corner host's triple: entry leg, chunk, exit leg share host_id
        triples: dict[int, list] = {}
        for b in graph.blocks:
            if b.host_id is not None:
                triples.setdefault(b.host_id, []).append(b)
        for host_id, blocks in triples.items():
            host = graph.block(host_id)
            if host.kind != "corner":
                continue
            entry, chunk, exit_leg = sorted(blocks, key=lambda b: b.id)
            assert chunk.kind == "corner" and chunk.symbol == host.symbol
            assert entry.d_in == host.d_out.reverse()
            assert exit_leg.d_in == host.d_in.reverse()

    def test_partial_rollback_stops_at_frontier(self):
        # elements [1,5,7,3]: the stage-4 injury lands back inside the
        # stage-1 interval but not the stage-2 one, so only the blocks of
        # collections 2 and 3 are retraced
        tree = two_branch_tree()
        track = DestinationTrack([(1, 1), (2, 5), (3, 7), (4, 3)])
        snaps, graph = q_snapshots(4, tree, track)
        returns = [b for b in graph.blocks if b.host_id is not None]
        host_stages = sorted({graph.block(b.host_id).creation_stage for b in returns})
        assert host_stages == [2, 3]
        assert check_touch_chain(graph).verdict == "pass"
        for a, b in zip(snaps, snaps[1:]):
            ok, witness = region_covers(a.pieces, b.pieces)
            assert ok, (b.stage, witness)
        for snap in snaps:
            assert len(connectivity_components(snap)) == 1

    def test_degenerate_script_rejected(self):
        # consecutive elements 4 then 5 collapse the max track, zeroing a
        # corner width: the builder must refuse rather than emit degenerate
        # blocks (the distinctness assumption on the track)
        tree = two_branch_tree()
        track = DestinationTrack([(1, 1), (2, 4), (3, 5)])
        with pytest.raises(ValueError):
            build_cantor_fan_q(3, tree, track)

    def test_full_run_chain_and_geometry(self):
        tree = two_branch_tree()
        track = DestinationTrack(INJURY_TRACK)
        _, graph = build_cantor_fan_q(6, tree, track)
        rep = check_touch_chain(graph)
        assert rep.verdict == "pass", rep.witness


class TestSnapshots:
    def test_nesting_connectivity_product_counts(self):
        tree = two_branch_tree()
        track = DestinationTrack(INJURY_TRACK)
        snaps, graph = q_snapshots(6, tree, track)
        for a, b in zip(snaps, snaps[1:]):
            ok, witness = region_covers(a.pieces, b.pieces)
            assert ok, (b.stage, witness)
        for snap in snaps:
            assert len(connectivity_components(snap)) == 1, snap.stage
        # straight-block product structure: rectangles = level interval count
        for blk in graph.blocks:
            if blk.kind != "straight":
                continue
            for t in range(blk.creation_stage, 7):
                body = blk.body_at(tree, t)
                assert len(body) == len(fat_level(tree, t).intervals)

    def test_requires_symmetric_tree(self):
        lopsided = TreePresentation([("1", 0)])
        track = DestinationTrack([(1, 4)])
        with pytest.raises(ValueError):
            build_cantor_fan_q(1, lopsided, track)

    def test_stage_budget_enforced(self):
        tree = two_branch_tree()
        track = DestinationTrack([(1, 4)])
        with pytest.raises(ValueError):
            build_cantor_fan_q(3, tree, track)

    def test_full_tree_also_works(self):
        tree = full_tree()
        track = DestinationTrack([(1, 4), (2, 2), (3, 6)])
        snaps, graph = q_snapshots(3, tree, track)
        for a, b in zip(snaps, snaps[1:]):
            ok, witness = region_covers(a.pieces, b.pieces)
            assert ok, (b.stage, witness)
        rep = check_touch_chain(graph)
        assert rep.verdict == "pass", rep.witness


def drawn_symmetry_trees(rng: random.Random, count: int):
    """Mirrored schedules, some with one more entry that may break the mirror
    at any length and stage, and plain schedules."""
    def draw(entries):
        return [("".join(rng.choice("01") for _ in range(rng.randint(0, 6))), rng.randint(0, 7))
                for _ in range(entries)]

    for k in range(count):
        prune = draw(rng.randint(0, 4))
        if k % 3 < 2:
            prune = list(oracles.symmetrize(TreePresentation(prune)).prune)
        if k % 3 == 1:
            prune += draw(1)
        yield TreePresentation(prune)


class TestSymmetryCheck:
    """`_check_symmetric` reads one length per stage; the loop over every
    length and stage kept in `tests/oracles.py` gives the same verdict."""

    def test_matches_every_length_loop(self):
        verdicts = Counter()
        rng = random.Random(18)
        for tree in drawn_symmetry_trees(rng, 150):
            depth = rng.randint(0, 8)
            verdict = fanq._check_symmetric(tree, depth)
            assert verdict == oracles.check_symmetric(TreePresentation(tree.prune), depth), (
                tree.prune, depth)
            verdicts[verdict] += 1
        assert min(verdicts[True], verdicts[False]) >= 30, verdicts


def solid_graph():
    """Hand-built configuration of solid blocks chained <- <- v ->."""

    def solid(bid, box):
        return BlockRecord(
            id=bid,
            creation_stage=0,
            kind="end-box",
            d_in=None,
            d_out=None,
            frame_stage=0,
            box=tuple(F(v) for v in box),
        )

    z_first = solid(0, (5, 11, 0, 5))
    z0 = solid(1, (0, 5, 0, 5))
    z1 = solid(2, (0, 5, -5, 0))
    z2 = solid(3, (5, 9, -5, 0))
    graph = BlockGraph(tree=full_tree(), blocks=[z_first, z0, z1, z2])
    graph.touches = [
        TouchEdge(None, 0, LEFT),
        TouchEdge(0, 1, LEFT),
        TouchEdge(1, 2, DOWN),
        TouchEdge(2, 3, RIGHT),
    ]
    return graph


class TestCheckTouch:
    def test_solid_chain_all_true(self):
        graph = solid_graph()
        z = {b.id: b for b in graph.blocks}
        assert check_touch(z[0], z[1], LEFT, graph, 0)
        assert check_touch(z[1], z[2], DOWN, graph, 0)
        assert check_touch(z[2], z[3], RIGHT, graph, 0)

    def test_disjoint_boxes_false(self):
        graph = solid_graph()
        z = {b.id: b for b in graph.blocks}
        assert not check_touch(z[0], z[2], LEFT, graph, 0)


class _OneBodySwapped:
    """A block graph's touches and bodies, with one block's body replaced."""

    def __init__(self, graph, block, body):
        self.touches = graph.touches
        self._graph, self._block, self._body = graph, block, body

    def body(self, block, t):
        return self._body if block is self._block else self._graph.body(block, t)


def _touch_cases(graph, z0, z1, d, t):
    """The touch as given, reversed, and with one piece of either body that
    meets the touch line dropped or halved."""
    yield z0, z1, d, graph, t
    yield z0, z1, d.reverse(), graph, t
    for z, edge in ((z0, _edge_segment(z0.box, d)), (z1, _edge_segment(z1.box, d.reverse()))):
        body = graph.body(z, t)
        for i, piece in enumerate(body):
            if convex_intersection(piece, edge) is None:
                continue
            rest = body[:i] + body[i + 1 :]
            yield z0, z1, d, _OneBodySwapped(graph, z, rest), t
            yield z0, z1, d, _OneBodySwapped(graph, z, [*rest, _split_piece(piece)[0]]), t


class TestCheckTouchBodyLoop:
    """The loop over meeting piece pairs: a meeting off the touch line
    rejects the touch, and a pair whose boxes meet but whose pieces do not
    is passed over."""

    @staticmethod
    def touch_with_body(body) -> bool:
        graph = solid_graph()
        z0, z1 = graph.blocks[0], graph.blocks[1]  # [5, 11] x [0, 5], then [0, 5] x [0, 5]
        swapped = _OneBodySwapped(graph, z1, body)
        got = check_touch(z0, z1, LEFT, swapped, 0)
        assert got == oracles.check_touch(z0, z1, LEFT, swapped, 0)
        return got

    def test_overlapping_bodies_fail(self):
        assert not self.touch_with_body([rect(0, 0, 6, 5)])

    def test_meeting_along_another_edge_fails(self):
        assert not self.touch_with_body([rect(0, 0, 5, 5), rect(5, -1, 11, 0)])

    def test_pieces_apart_inside_meeting_boxes_pass_over(self):
        triangle = ConvexPoly([(2, 4), (2, 9), (7, 9)])  # above the line y = x + 2
        z0_piece = rect(5, 0, 11, 5)  # z0's body
        assert bboxes_meet(triangle, z0_piece)
        assert convex_intersection(triangle, z0_piece) is None
        assert self.touch_with_body([rect(0, 0, 5, 5), triangle])


class TestCheckTouchMatchesChartMerge:
    """`check_touch` decides by two `region_covers` calls what the merge of
    Fraction chart parameters in `tests/oracles.py` decided.  The oracle also
    rejects a pair that touches both ways; `check_touch_chain` rejects such
    a chain before it tests any touch, so those cases are not compared."""

    def _assert_matches(self, cases) -> None:
        verdicts = Counter()
        for case in cases:
            z0, z1, _, graph, _ = case
            if any(e.src == z1.id and e.dst == z0.id for e in graph.touches):
                continue
            got = check_touch(*case)
            assert got == oracles.check_touch(*case), case[:3] + case[4:]
            verdicts[got] += 1
        assert verdicts[True] and verdicts[False]

    def test_fan_touches_at_stages_0_to_6(self):
        # every touch edge of the stage-6 replay at every stage from its
        # later block's creation to 6
        tree, track, stage = config_fan(6)
        _, graph = build_cantor_fan_q(stage, tree, track)
        cases = []
        for e in (e for e in graph.touches if e.src is not None):
            z0, z1 = graph.block(e.src), graph.block(e.dst)
            for t in range(max(z0.creation_stage, z1.creation_stage), stage + 1):
                cases.extend(_touch_cases(graph, z0, z1, e.direction, t))
        self._assert_matches(cases)

    def test_solid_graph(self):
        graph = solid_graph()
        cases = []
        for z0, z1 in permutations(graph.blocks, 2):
            for d in (LEFT, RIGHT, UP, DOWN):
                cases.extend(_touch_cases(graph, z0, z1, d, 0))
        self._assert_matches(cases)


class TestBodyMemo:
    def test_each_body_built_once(self, tmp_path, monkeypatch):
        # the snapshots and touch-chain read one memo on the graph; with
        # check_touch rebuilding its bodies this run made 630 builds
        built = []
        real = BlockRecord.body_at

        def counting(block, tree, t):
            built.append((block.id, block.creation_stage, t))
            return real(block, tree, t)

        monkeypatch.setattr(BlockRecord, "body_at", counting)
        argv = ["verify", "--config", str(CONFIGS / "cantor-fan-q.json"), "--checks",
                "nesting,connectivity,touch-chain", "--stage-range", "0:6",
                "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert len(built) == len(set(built)) == 402

    def test_late_stage_range_builds_only_its_stages(self, tmp_path, monkeypatch):
        # 5:6 reads the bodies of stages 5 and 6 only; building every stage
        # from 0 made 402 bodies, 176 of them for stages 0-4
        built = []
        real = BlockRecord.body_at

        def counting(block, tree, t):
            built.append(t)
            return real(block, tree, t)

        monkeypatch.setattr(BlockRecord, "body_at", counting)
        out = tmp_path / "r.json"
        argv = ["verify", "--config", str(CONFIGS / "cantor-fan-q.json"), "--checks",
                "nesting,connectivity,touch-chain", "--stage-range", "5:6", "--out", str(out)]
        assert main(argv) == 0
        assert len(built) == 226 and set(built) == {5, 6}
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "2725855d7031916788da8062d6e044063ffe716b42d2aa05dfef004a58ab2037"

    def test_memo_returns_what_body_at_builds(self):
        # end boxes all carry id -1, so a memo keyed on the id alone would
        # hand one end box another's body
        tree = two_branch_tree()
        _, graph = build_cantor_fan_q(6, tree, DestinationTrack(INJURY_TRACK))
        for blk in graph.blocks + graph.end_boxes:
            for t in range(blk.creation_stage, 7):
                assert graph.body(blk, t) == blk.body_at(tree, t), (blk.id, blk.creation_stage, t)


class TestReframe:
    def test_onto_its_own_ambient_is_the_base_frame(self):
        m = fat_level(full_tree(), 2)
        base = fanq.AffineFrame(F(3), F(2))
        assert fanq.reframe(base, m.l_minus, m.r_plus, m) == base

    def test_frame_onto_maps_the_ambient_ends(self):
        m = fat_level(two_branch_tree(), 3)
        frame = fanq.frame_onto(F(1, 3), F(4, 7), m)
        assert (frame.img(m.l_minus), frame.img(m.r_plus)) == (F(1, 3), F(4, 7))

    def test_onto_a_point_is_constant(self):
        m = fat_level(full_tree(), 1)
        frame = fanq.reframe(fanq.AffineFrame(F(0), F(1)), F(1, 2), F(1, 2), m)
        assert frame == fanq.AffineFrame(F(1, 2), F(0))


class TestBodiesMatchFractionPath:
    """Bodies and frames equal the `Fraction` path they replaced: each level
    rescaled onto [0, 1] and laid back through the box, each frame solved
    from six coefficients."""

    @pytest.mark.parametrize("make", ALL_TRACKS.values(), ids=ALL_TRACKS.keys())
    def test_bodies(self, make):
        tree, track, stage = make()
        _, graph = build_cantor_fan_q(stage, tree, track)
        levels = [oracles.fat_level(TreePresentation(tree.prune), s) for s in range(stage + 1)]
        for blk in graph.blocks + graph.end_boxes:
            for t in range(blk.creation_stage, stage + 1):
                got = [p.hverts for p in blk.body_at(tree, t)]
                want = [p.hverts for p in oracles.body_at(blk, levels, t)]
                assert got == want, (blk.id, blk.creation_stage, t)

    @pytest.mark.parametrize("make", ALL_TRACKS.values(), ids=ALL_TRACKS.keys())
    def test_frames(self, make, monkeypatch):
        made = []
        real = fanq.reframe

        def recording(base, lo, hi, m):
            made.append((base, lo, hi, m, real(base, lo, hi, m)))
            return made[-1][-1]

        monkeypatch.setattr(fanq, "reframe", recording)
        tree, track, stage = make()
        build_cantor_fan_q(stage, tree, track)
        assert made
        for base, lo, hi, m, frame in made:
            want = oracles.n_coefficients(m.l_minus, m.r_plus, base.offset, base.scale, lo, hi)
            assert (frame.offset, frame.scale) == want


class TestBodyFractions:
    """With the fat levels cached, a body is laid on ints at every band
    count: neither a straight nor a corner body makes a `Fraction`, since
    each block's integer band box is made once, when the block is."""

    def test_fraction_count_does_not_grow_with_bands(self, monkeypatch):
        tree = full_tree()
        _, graph = build_cantor_fan_q(1, tree, DestinationTrack([(1, 4)]))
        straight, corner = graph.blocks[0], graph.blocks[1]
        assert (straight.kind, corner.kind) == ("straight", "corner")
        for s in range(6):
            fat_level(tree, s)
        made = []
        real = F.__new__

        def counting(cls, *args, **kwargs):
            made.append(cls)
            return real(cls, *args, **kwargs)

        def fractions_made(blk, t) -> int:
            made.clear()
            with monkeypatch.context() as patch:
                patch.setattr(F, "__new__", staticmethod(counting))
                blk.body_at(tree, t)
            return len(made)

        ts = (1, 3, 5)  # 2, 8 and 32 bands
        assert [len(straight.body_at(tree, t)) for t in ts] == [2, 8, 32]
        assert [fractions_made(straight, t) for t in ts] == [0, 0, 0]
        assert [fractions_made(corner, t) for t in ts] == [0, 0, 0]

    def test_corner_frame_box_is_mapped_once(self, monkeypatch):
        tree = full_tree()
        _, graph = build_cantor_fan_q(1, tree, DestinationTrack([(1, 4)]))
        corner = graph.blocks[1]
        assert corner.kind == "corner"
        calls = []
        real = fanq.AffineFrame.img

        def counting(self, x):
            calls.append(x)
            return real(self, x)

        monkeypatch.setattr(fanq.AffineFrame, "img", counting)
        assert all(corner.body_at(tree, t) for t in (1, 3, 5))
        assert calls == []


def _replay_or_error(replay, stage, tree, track):
    try:
        return replay(stage, tree, track), None
    except ValueError as exc:
        return None, str(exc)


def _frames(graph) -> list:
    return [tuple(None if f is None else (f.offset, f.scale) for f in (b.fx, b.fy))
            for b in graph.blocks]


def _assert_builds_match(stage, tree, rows) -> None:
    """The builder and `oracles.fan_replay` give one graph, one set of frames
    and one set of stage bodies, or one error."""
    graph, error = _replay_or_error(fanq._replay, stage, tree, DestinationTrack(rows))
    want, want_error = _replay_or_error(oracles.fan_replay, stage, tree,
                                        oracles.DestinationTrack(rows))
    assert error == want_error
    if graph is None:
        return
    assert graph.to_json() == want.to_json()
    assert _frames(graph) == _frames(want)
    for t in range(stage + 1):
        got = [p.hverts for p in graph.snapshot(t).pieces]
        assert got == [p.hverts for p in want.snapshot(t).pieces], t


TREES = st.builds(
    lambda prune, mirror: (oracles.symmetrize(TreePresentation(prune)) if mirror
                           else TreePresentation(prune)),
    st.lists(st.tuples(st.text("01", min_size=1, max_size=3), st.integers(0, 3)), max_size=3),
    st.booleans(),
)
# lists of elements, and orders of the odd numbers below 2k, which injure at
# most stages
TRACKS = st.one_of(
    st.lists(st.integers(1, 8), unique=True, min_size=2, max_size=5),
    st.integers(2, 5).flatmap(lambda k: st.permutations(range(1, 2 * k, 2))),
)


class TestBuilderMatchesOracle:
    """The snake grown at its head equals the builder kept in
    `tests/oracles.py`, which threaded each block's predecessor, scanned the
    blocks for the base frame and guarded the track."""

    @pytest.mark.parametrize("make", ALL_TRACKS.values(), ids=ALL_TRACKS.keys())
    def test_sample_tracks(self, make):
        tree, track, stage = make()
        _assert_builds_match(stage, tree, list(enumerate(track.elements, 1)))

    @settings(max_examples=100, deadline=None)
    @given(tree=TREES, elements=TRACKS, data=st.data())
    def test_drawn_trees_tracks_and_stages(self, tree, elements, data):
        stage = data.draw(st.integers(0, len(elements) + 1))  # the last is past the track
        _assert_builds_match(stage, tree, list(enumerate(elements, 1)))


class TestTrackInvariants:
    """What the builder's removed guards asserted holds on every drawn track."""

    @settings(max_examples=200, deadline=None)
    @given(elements=st.lists(st.integers(1, 30), unique=True, min_size=1, max_size=12))
    def test_gamma(self, elements):
        rows = list(enumerate(elements, 1))
        track, oracle = DestinationTrack(rows), oracles.DestinationTrack(rows)
        gammas = [track.gamma(s) for s in range(len(rows) + 1)]
        assert gammas == [oracle.gamma(s) for s in range(len(rows) + 1)]
        for s, (g0, g1) in enumerate(gammas):
            assert F(1, 3) <= g0 < g1 <= (F(2, 3) if s == 0 else F(4, 9))
        for s, ((g0, g1), (h0, h1)) in enumerate(zip(gammas, gammas[1:])):
            if not (g0 <= h0 and h1 <= g1):
                assert g1 < h0  # an injury lies right of the old interval
            assert all(g[0] < h0 for g in gammas[: s + 1])

    @settings(max_examples=60, deadline=None)
    @given(elements=TRACKS)
    def test_frame_scales_are_positive(self, elements):
        graph, error = _replay_or_error(fanq._replay, len(elements), two_branch_tree(),
                                        DestinationTrack(list(enumerate(elements, 1))))
        if graph is None:
            assert error == "destination max must strictly shrink inside a frame"
            return
        for b in graph.blocks:
            assert all(f.scale > 0 for f in (b.fx, b.fy) if f is not None), b.id
