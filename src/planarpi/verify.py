"""Batch invariant checkers producing machine-readable pass/fail reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .geom import (
    ConvexPoly,
    RegionSnapshot,
    UnionFind,
    bboxes_meet,
    connectivity_components,
    frac,
    frac_str,
    hausdorff_enclosure,
    piece_pairs,
    polys_intersect,
    region_covers,
    subtract_piece,
)

if TYPE_CHECKING:
    from .continua.fanq import BlockGraph


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    stage_range: tuple[int, int]
    verdict: str  # 'pass' | 'fail' | 'inconclusive'
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("failing report requires a witness")

    def to_json(self) -> dict:
        return {
            "check": self.check_name,
            "stages": list(self.stage_range),
            "verdict": self.verdict,
            "witness": self.witness,
        }


def check_nesting(snapshots: Sequence[RegionSnapshot]) -> CheckReport:
    """Pass iff each snapshot exactly contains the next one."""
    if len(snapshots) < 2:
        raise ValueError("nesting check needs at least two stages")
    lo = snapshots[0].stage
    hi = snapshots[-1].stage
    for prev, nxt in zip(snapshots, snapshots[1:]):
        ok, witness = region_covers(prev.pieces, nxt.pieces)
        if not ok:
            return CheckReport(
                check_name="nesting",
                stage_range=(lo, hi),
                verdict="fail",
                witness={
                    "stage": nxt.stage,
                    "uncovered": [
                        [frac_str(x), frac_str(y)] for x, y in witness.vertices
                    ],
                },
            )
    return CheckReport(check_name="nesting", stage_range=(lo, hi), verdict="pass")


def check_connectivity(snapshots: Sequence[RegionSnapshot]) -> CheckReport:
    lo, hi = snapshots[0].stage, snapshots[-1].stage
    for snap in snapshots:
        n = len(connectivity_components(snap))
        if n != 1:
            return CheckReport(
                check_name="connectivity",
                stage_range=(lo, hi),
                verdict="fail",
                witness={"stage": snap.stage, "components": n},
            )
    return CheckReport(check_name="connectivity", stage_range=(lo, hi), verdict="pass")


class PieceGraph:
    """The intersection graph of a snapshot's pieces, built once, for
    counting the components left after removing one shape at a time.

    `components_without(shape)` equals
    `len(connectivity_components(subtract_poly(region, shape)))`.  Only the
    pieces whose bbox meets the shape are cut.  A fragment of piece i lies
    in piece i, so it can only meet the neighbours of i, their fragments and
    its sibling fragments; those are the only pairs tested again.
    """

    def __init__(self, region: RegionSnapshot) -> None:
        self.pieces = region.pieces
        self.neighbours: list[list[int]] = [[] for _ in self.pieces]
        for i, j in piece_pairs(self.pieces):
            if polys_intersect(self.pieces[i], self.pieces[j]):
                self.neighbours[i].append(j)
                self.neighbours[j].append(i)

    def components_without(self, shape: ConvexPoly) -> int:
        nodes = list(self.pieces)  # node i < n is piece i, later ones fragments
        fragments: dict[int, range] = {}  # cut piece -> its fragment nodes
        for i, piece in enumerate(self.pieces):
            if bboxes_meet(piece, shape):
                rest = subtract_piece(piece, shape)
                fragments[i] = range(len(nodes), len(nodes) + len(rest))
                nodes.extend(rest)
        part = UnionFind(len(nodes))

        def join(u: int, v: int) -> None:
            if part.find(u) != part.find(v) and polys_intersect(nodes[u], nodes[v]):
                part.union(u, v)

        for i in range(len(self.pieces)):
            if i not in fragments:
                for j in self.neighbours[i]:
                    if j > i and j not in fragments:
                        part.union(i, j)
        for i, frags in fragments.items():
            for a, u in enumerate(frags):
                for v in frags[a + 1:]:
                    join(u, v)
                for j in self.neighbours[i]:
                    if j not in fragments:
                        join(u, j)
                    elif j > i:
                        for v in fragments[j]:
                            join(u, v)
        return len({part.find(u) for u in range(len(nodes)) if u not in fragments})


def check_cut_dichotomy(
    builder: str, snap: RegionSnapshot, probes: Iterable[tuple[dict, ConvexPoly, bool]]
) -> CheckReport:
    """Pass iff removing each probe shape disconnects the snapshot exactly
    when the probe expects a cut.  A probe is (witness label, shape, expected)."""
    name = f"cut-dichotomy-{builder}"
    stages = (snap.stage, snap.stage)
    graph = PieceGraph(snap)
    for label, shape, expected in probes:
        observed = graph.components_without(shape) > 1
        if expected != observed:
            witness = {**label, "expected_cut": expected, "observed_cut": observed}
            return CheckReport(name, stages, "fail", witness)
    return CheckReport(name, stages, "pass")


def check_touch_chain(graph: BlockGraph) -> CheckReport:
    """Pass iff the touch edges form a simple path over all blocks in
    creation order and each edge meets the geometric touch condition at the
    last creation stage.  The path settles the other two conditions: every
    block is reached, and no two blocks touch both ways, as each would be the
    other's only predecessor and the walk could reach neither."""
    from .continua.fanq import check_touch

    name = "touch-chain"
    stages = (0, max((b.creation_stage for b in graph.blocks), default=0))
    incoming: set[int] = set()
    outgoing: dict[int, int] = {}
    for e in graph.touches:
        if e.dst in incoming:
            return CheckReport(name, stages, "fail", {"block": e.dst, "issue": "two predecessors"})
        incoming.add(e.dst)
        if e.src is not None:
            if e.src in outgoing:
                return CheckReport(name, stages, "fail", {"block": e.src, "issue": "two successors"})
            outgoing[e.src] = e.dst
    missing = [b.id for b in graph.blocks if b.id not in incoming]
    if missing:
        return CheckReport(name, stages, "fail", {"issue": "unreached blocks", "blocks": missing})
    # the chain must respect creation stages (precedence extends them)
    chain = []
    cur = next((e.dst for e in graph.touches if e.src is None), None)
    if cur is None:
        return CheckReport(name, stages, "fail", {"issue": "no first block"})
    # no block has two predecessors, so the walk never returns to a block
    while cur is not None:
        chain.append(cur)
        cur = outgoing.get(cur)
    if len(chain) != len(graph.blocks):
        return CheckReport(
            name, stages, "fail", {"issue": "path does not cover blocks", "covered": len(chain)}
        )
    for a, b in zip(chain, chain[1:]):
        if graph.block(a).creation_stage > graph.block(b).creation_stage:
            return CheckReport(
                name, stages, "fail", {"issue": "precedence violates creation stages", "at": b}
            )
    t = stages[1]  # no block is created later
    for e in graph.touches:
        if e.src is None:
            continue
        z0 = graph.block(e.src)
        z1 = graph.block(e.dst)
        if not check_touch(z0, z1, e.direction, graph, t):
            return CheckReport(
                name,
                stages,
                "fail",
                {"issue": "touch conditions fail", "edge": [e.src, e.dst, e.direction.symbol], "stage": t},
            )
    return CheckReport(name, stages, "pass")


def check_hausdorff_bound(
    a: RegionSnapshot,
    b: RegionSnapshot,
    bound,
    sense: str,
    tol_exp: int,
) -> CheckReport:
    """Resolve d_H(a,b) {>=,<=} bound via a certified enclosure."""
    bound = frac(bound)
    enc = hausdorff_enclosure(a, b, tol_exp)
    name = f"hausdorff-{sense}-{frac_str(bound)}"
    stages = (min(a.stage, b.stage), max(a.stage, b.stage))
    if sense == ">=":
        if enc.low >= bound:
            return CheckReport(name, stages, "pass")
        if enc.high < bound:
            return CheckReport(
                name, stages, "fail", {"enclosure": [frac_str(enc.low), frac_str(enc.high)]}
            )
    elif sense == "<=":
        if enc.high <= bound:
            return CheckReport(name, stages, "pass")
        if enc.low > bound:
            return CheckReport(
                name, stages, "fail", {"enclosure": [frac_str(enc.low), frac_str(enc.high)]}
            )
    else:
        raise ValueError("sense must be '>=' or '<='")
    return CheckReport(
        name, stages, "inconclusive", {"enclosure": [frac_str(enc.low), frac_str(enc.high)]}
    )


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)


def exit_code(reports: Sequence[CheckReport]) -> int:
    return 1 if any(r.verdict == "fail" for r in reports) else 0
