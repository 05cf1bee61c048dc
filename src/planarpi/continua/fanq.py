"""Stage machine for the co-c.e. Cantor fan built from a snake of blocks.

Each block carries an affine frame per axis mapping the fat-Cantor ambient
interval onto the block's box, so its stage-t body is just the affine image
of the stage-t fat level, triangle-clipped for corners.  The snake grows at
its head: every block of stage s + 1 is entered from the last block made and
laid on the stage-s fat level.  A non-injured stage climbs into the top
margin strip of the stage's last straight block; an injured stage first
retraces every block newer than the rollback stage p through stage-s margin
corridors (solid in the stage-s fat level and band-free at every later
stage), then resumes on the stage-p frame.  The destination track reads its
endpoints from the middle-thirds code `cantor._ternary_code`.

Margin corridors follow one rule: the retraced path runs in the reverse
direction with the host block on its right, which picks the r-side margin
exactly when the reverse travel points right or down.  For a symmetric tree
presentation the corridor rectangles sit inside the host bodies with
equality at worst on the clipping diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .. import check_natural
from ..cantor import FatCantorLevel, TreePresentation, _ternary_code, fat_level, flip_bits
from ..geom import (
    ConvexPoly,
    RegionSnapshot,
    convex_intersection,
    frac_str,
    piece_pairs,
    rect,
    region_covers,
    segment,
    to_ints,
)
from ..intgeom import orient
from .regions import DOWN, LEFT, RIGHT, UP, Direction, banded, level_ends

Frac = Fraction

ONE_THIRD = Frac(1, 3)
TWO_THIRDS = Frac(2, 3)


@dataclass(frozen=True)
class AffineFrame:
    """value = offset + scale * x, for x on the fat-Cantor ambient line."""

    offset: Fraction
    scale: Fraction

    def img(self, x: Fraction) -> Fraction:
        return self.offset + self.scale * x

    def img_interval(self, lo, hi) -> tuple[Fraction, Fraction]:
        return self.img(lo), self.img(hi)  # every frame's scale is positive


def reframe(base: AffineFrame, lo, hi, m: FatCantorLevel) -> AffineFrame:
    """Frame mapping the stage-m ambient [l-, r+] onto base.img([lo, hi])."""
    scale = base.scale * (hi - lo) / (m.r_plus - m.l_minus)
    return AffineFrame(base.img(lo) - scale * m.l_minus, scale)


def frame_onto(x0: Fraction, x1: Fraction, m: FatCantorLevel) -> AffineFrame:
    """Frame mapping the stage-m ambient [l-, r+] onto [x0, x1]."""
    return reframe(AffineFrame(Frac(0), Frac(1)), x0, x1, m)


@dataclass
class BlockRecord:
    """One block of the snake with its box, frames, and chain directions."""

    id: int
    creation_stage: int
    kind: str  # 'straight' | 'corner' | 'end-box'
    d_in: Optional[Direction]
    d_out: Optional[Direction]
    frame_stage: int
    box: tuple[Fraction, Fraction, Fraction, Fraction]  # x0, x1, y0, y1
    axis: Optional[int] = None  # straight blocks: travel axis
    symbol: Optional[str] = None  # corner blocks
    fx: Optional[AffineFrame] = None
    fy: Optional[AffineFrame] = None
    host_id: Optional[int] = None
    # the integer box (x0, y0, x1, y1, d) the bands are laid through: a
    # straight block's box, a corner's frame box; set once by `_Builder._chain`
    band_box: Optional[tuple[int, int, int, int, int]] = field(
        default=None, repr=False, compare=False
    )

    def body_at(self, tree: TreePresentation, t: int) -> list[ConvexPoly]:
        if t < self.creation_stage:
            raise ValueError("block queried before creation")
        x0, x1, y0, y1 = self.box
        if self.kind == "end-box":
            return [rect(x0, y0, x1, y1)]
        ends, span = level_ends(tree, self.frame_stage, t)
        if self.kind == "straight":
            return banded("-" if self.axis == 0 else "|", self.band_box, ends, span)
        # corner: the symbol laid over the frame box, then clipped to the
        # (possibly smaller) bounding box
        box = rect(x0, y0, x1, y1)
        return [piece for band in banded(self.symbol, self.band_box, ends, span)
                if (piece := convex_intersection(band, box)) is not None]

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "creation_stage": self.creation_stage,
            "kind": self.kind,
            "axis": self.axis,
            "symbol": self.symbol,
            "dir": (
                None
                if self.d_in is None
                else [self.d_in.symbol, (self.d_out or self.d_in).symbol]
            ),
            "frame_stage": self.frame_stage,
            "box": [frac_str(v) for v in self.box],
            "host": self.host_id,
        }


@dataclass
class TouchEdge:
    src: Optional[int]  # None for the declared first touch
    dst: int
    direction: Direction

    def to_json(self) -> list:
        return [self.src, self.dst, self.direction.symbol]


@dataclass
class BlockGraph:
    """The fan machine's state: its tree, its blocks, its touches, one end box
    per stage, and the stage-t body of each block, built once on first use."""

    tree: TreePresentation
    blocks: list[BlockRecord] = field(default_factory=list)  # block id == list index
    touches: list[TouchEdge] = field(default_factory=list)
    end_boxes: list[BlockRecord] = field(default_factory=list)  # one per stage
    _bodies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def block(self, bid: int) -> BlockRecord:
        if not 0 <= bid < len(self.blocks):
            raise KeyError(bid)
        return self.blocks[bid]

    def body(self, block: BlockRecord, t: int) -> list[ConvexPoly]:
        """`block.body_at(self.tree, t)`, built once; callers must not mutate it."""
        key = (block.id, block.creation_stage, t)  # end boxes all carry id -1
        body = self._bodies.get(key)
        if body is None:
            body = self._bodies[key] = block.body_at(self.tree, t)
        return body

    def snapshot(self, t: int) -> RegionSnapshot:
        """Stage t: the stage-t end box and every block made by then."""
        pieces = list(self.body(self.end_boxes[t], t))
        for b in self.blocks:
            if b.creation_stage <= t:
                pieces.extend(self.body(b, t))
        return RegionSnapshot(t, pieces)

    def to_json(self) -> dict:
        incoming = {t.dst: t for t in self.touches}
        blocks = []
        for b in self.blocks:
            doc = b.to_json()
            edge = incoming.get(b.id)
            doc["touch"] = None if edge is None else [edge.src, edge.direction.symbol]
            blocks.append(doc)
        return {
            "blocks": blocks,
            "touch": [t.to_json() for t in self.touches],
            "end_boxes": [e.to_json() for e in self.end_boxes],
        }


class DestinationTrack:
    """Destination abscissa evolving with a scripted enumeration.

    gamma_min(s) = 1/3 + rho(B_s)/3, where rho(B) is the middle-thirds point
    coded by B's characteristic string, and gamma_max(s) adds the exact
    all-ones tail above the stage-s element n_s, so the track starts at
    [1/3, 2/3] and stays inside [1/3, 4/9] after.  The entries are the rows
    (s, element) for the stages s = 1, 2, ..., n in turn.
    """

    def __init__(self, entries: Sequence[tuple[int, int]]):
        rows = [(check_natural(s, "stage"), check_natural(n, "element")) for s, n in entries]
        stages = [s for s, _ in rows]
        elements = [n for _, n in rows]
        if stages != list(range(1, len(rows) + 1)):
            raise ValueError(f"rows must be stages 1, 2, ... in turn, got stages {stages}")
        if len(set(elements)) != len(elements):
            raise ValueError("elements must be distinct")
        if any(n < 1 for n in elements):
            raise ValueError("elements must be >= 1 (0 is the implicit tail index)")
        self.elements = elements
        self.final_stage = len(elements)

    def gamma(self, step: int) -> tuple[Fraction, Fraction]:
        if step < 0 or step > self.final_stage:
            raise ValueError("step outside the scripted range")
        if step == 0:
            return ONE_THIRD, TWO_THIRDS
        members = set(self.elements[:step])
        n, k = self.elements[step - 1], max(members)
        bits = "".join("1" if i in members else "0" for i in range(1, k + 1))
        gmin = Frac(3 ** (k + 1) + _ternary_code(bits), 3 ** (k + 2))
        gmax = Frac(3**n + _ternary_code(bits[: n - 1]) + 1, 3 ** (n + 1))
        return gmin, gmax


def _corridor(d: Direction, m: FatCantorLevel) -> tuple[Fraction, Fraction]:
    """Stage margin for a retrace leg travelling in direction d (host on the right)."""
    if d.axis ^ d.sense:
        return (m.r_star, m.r_plus)
    return (m.l_minus, m.l_star)


class _Builder:
    """Grows the snake at its head: each block is entered from the last one
    made, at the current `stage` and on the fat level `m`, which is stage
    0's level at stage 0 and the stage-s level at stage s + 1."""

    def __init__(self, tree: TreePresentation, track: DestinationTrack):
        self.track = track
        self.graph = BlockGraph(tree)

    def _chain(self, kind: str, d_in: Direction, box, d_out: Optional[Direction] = None,
               **frames) -> None:
        """Append the next block of the snake, entered from the last block
        (none for the first) by a touch along d_in."""
        m, blocks = self.m, self.graph.blocks
        band_box = box
        if kind == "corner":  # the frame's image of the stage's ambient square
            band_box = (frames["fx"].img_interval(m.l_minus, m.r_plus)
                        + frames["fy"].img_interval(m.l_minus, m.r_plus))
        (x0, x1, y0, y1), d = to_ints(*band_box)
        prev = blocks[-1].id if blocks else None
        blocks.append(BlockRecord(
            id=len(blocks),
            creation_stage=self.stage,
            kind=kind,
            d_in=d_in,
            d_out=d_in if d_out is None else d_out,
            frame_stage=m.stage,
            box=box,
            band_box=(x0, y0, x1, y1, d),
            **frames,
        ))
        self.graph.touches.append(TouchEdge(prev, len(blocks) - 1, d_in))

    def _end_box(self, box) -> None:
        self.graph.end_boxes.append(
            BlockRecord(
                id=-1,
                creation_stage=self.stage,
                kind="end-box",
                d_in=None,
                d_out=None,
                frame_stage=self.m.stage,
                box=box,
            )
        )

    # -- stage 0 ------------------------------------------------------------

    def stage_zero(self):
        self.stage, m = 0, fat_level(self.graph.tree, 0)
        self.m = m
        gmin, gmax = self.track.gamma(0)
        frame = AffineFrame(Frac(0), Frac(1))
        self._chain("straight", LEFT, (gmin, gmax, m.l_minus, m.r_plus), axis=0, fy=frame)
        self._end_box((gmin - ONE_THIRD, gmin, m.l_minus, m.r_plus))
        self.frames = [frame]  # the y-frame of the stage's last straight block
        self.zeta = ONE_THIRD
        self.gammas = [(gmin, gmax)]

    # -- retrace ------------------------------------------------------------

    def _straight_return(self, host: BlockRecord):
        m = self.m
        d = host.d_in.reverse()
        cross = host.fy if host.axis == 0 else host.fx
        lo, hi = _corridor(d, m)
        k = 2 - 2 * host.axis  # the cross axis's slot in the box
        box = host.box[:k] + cross.img_interval(lo, hi) + host.box[k + 2 :]
        frame = {"fy" if host.axis == 0 else "fx": reframe(cross, lo, hi, m)}
        self._chain("straight", d, box, axis=host.axis, host_id=host.id, **frame)

    def _corner_return(self, host: BlockRecord):
        m = self.m
        entry_dir = host.d_out.reverse()
        exit_dir = host.d_in.reverse()
        d_vert = entry_dir if entry_dir.axis == 1 else exit_dir
        d_horiz = entry_dir if entry_dir.axis == 0 else exit_dir
        x_corr = _corridor(d_vert, m)
        y_corr = _corridor(d_horiz, m)
        fx_chunk = reframe(host.fx, *x_corr, m)
        fy_chunk = reframe(host.fy, *y_corr, m)
        chunk_box = host.fx.img_interval(*x_corr) + host.fy.img_interval(*y_corr)

        def leg(d: Direction, before_chunk: bool) -> None:
            # a leg spans from the host's low edge to the chunk when it
            # travels up or right into the chunk, or down or left out of it
            k = 2 * d.axis
            (h0, h1), (c0, c1) = host.box[k : k + 2], chunk_box[k : k + 2]
            span = (h0, c0) if before_chunk == (d.sense == 1) else (c1, h1)
            box = chunk_box[:k] + span + chunk_box[k + 2 :]
            frame = {"fy": fy_chunk} if d.axis == 0 else {"fx": fx_chunk}
            self._chain("straight", d, box, axis=d.axis, host_id=host.id, **frame)

        leg(entry_dir, before_chunk=True)
        self._chain("corner", entry_dir, chunk_box, d_out=exit_dir, symbol=host.symbol,
                    fx=fx_chunk, fy=fy_chunk, host_id=host.id)
        leg(exit_dir, before_chunk=False)

    # -- one stage step -------------------------------------------------------

    def step(self):
        """Grow the snake from stage s to s + 1 on the stage-s frames."""
        s = self.stage
        self.stage, m = s + 1, fat_level(self.graph.tree, s)
        self.m = m
        gmin_n, gmax_n = self.track.gamma(s + 1)
        # p: the latest stage whose interval holds the new one; p < s means
        # stage s + 1 is injured and retraces every block made after stage p
        p = next(p for p in range(s, -1, -1)
                 if self.gammas[p][0] <= gmin_n and gmax_n <= self.gammas[p][1])
        self.gammas.append((gmin_n, gmax_n))
        hosts = [b for b in self.graph.blocks if p < b.creation_stage]

        y_frame, gmin_s = self.frames[s], self.gammas[s][0]
        x_end = (gmin_s - self.zeta, gmin_s)
        endbox_fx = frame_onto(*x_end, m)
        self._chain("corner", LEFT, x_end + (y_frame.img(m.l_minus), y_frame.img(m.r_star)),
                    d_out=UP, symbol="ll", fx=endbox_fx, fy=y_frame)
        self._chain("corner", UP, x_end + (y_frame.img(m.r_star), y_frame.img(m.r_plus)),
                    d_out=RIGHT, symbol="ul", fx=endbox_fx,
                    fy=reframe(y_frame, m.r_star, m.r_plus, m))
        for host in reversed(hosts):
            if host.kind == "straight":
                self._straight_return(host)
            else:
                self._corner_return(host)

        base = self.frames[p]
        gmin_host, gmax_host = self.gammas[p]
        ystar = reframe(base, m.r_star, m.r_plus, m)
        self._chain("straight", RIGHT,
                    (gmin_host, gmax_n, base.img(m.r_star), base.img(m.r_plus)), axis=0, fy=ystar)
        zeta_star = (gmax_host - gmax_n) / (3**s)
        if zeta_star <= 0:
            raise ValueError("destination max must strictly shrink inside a frame")
        x34 = (gmax_n, gmax_n + zeta_star)
        fx34 = frame_onto(*x34, m)
        ystarstar = reframe(ystar, m.r_star, m.r_plus, m)
        self._chain("corner", RIGHT, x34 + (ystar.img(m.l_minus), ystar.img(m.r_star)),
                    d_out=UP, symbol="lr", fx=fx34, fy=ystar)
        self._chain("corner", UP, x34 + (ystar.img(m.r_star), ystar.img(m.r_plus)),
                    d_out=LEFT, symbol="ur", fx=fx34, fy=ystarstar)
        y_band = (ystarstar.img(m.l_minus), ystarstar.img(m.r_plus))
        self._chain("straight", LEFT, (gmin_n, gmax_n) + y_band, axis=0, fy=ystarstar)
        # positive: B_{s+1} is B_p plus at least one element
        self.zeta = (gmin_n - gmin_host) / (3**s)
        self._end_box((gmin_n - self.zeta, gmin_n) + y_band)
        self.frames.append(ystarstar)


def _check_symmetric(tree: TreePresentation, depth: int) -> bool:
    """Every level up to `depth` is closed under `flip_bits` at stages 0..depth+1.

    One length per stage decides it: a shorter level is the prefixes of the
    level at min(depth, max_prune_len), since a survivor has a surviving
    child, and a longer one is that level times every tail.
    """
    length = min(depth, tree.max_prune_len)
    levels = (tree.level(length, stage) for stage in range(depth + 2))
    return all(sorted(map(flip_bits, lvl)) == lvl for lvl in levels)


def _replay(stage: int, tree: TreePresentation, track: DestinationTrack) -> BlockGraph:
    if stage > track.final_stage:
        raise ValueError("stage exceeds the scripted destination track")
    if tree.is_empty(stage + 1):
        raise ValueError("empty tree presentation")
    if not _check_symmetric(tree, stage):
        raise ValueError("tree presentation must be symmetric")
    builder = _Builder(tree, track)
    builder.stage_zero()
    for _ in range(stage):
        builder.step()
    return builder.graph


def build_cantor_fan_q(
    stage: int, tree: TreePresentation, track: DestinationTrack
) -> tuple[RegionSnapshot, BlockGraph]:
    """Replay the snake machine to the requested stage."""
    graph = _replay(stage, tree, track)
    return graph.snapshot(stage), graph


def q_snapshots(
    stage: int, tree: TreePresentation, track: DestinationTrack, first: int = 0
) -> tuple[list[RegionSnapshot], BlockGraph]:
    """The snapshots first..stage from a single replay."""
    graph = _replay(stage, tree, track)
    return [graph.snapshot(t) for t in range(first, stage + 1)], graph


# -- the touch predicate --------------------------------------------------------


def _edge_segment(box, d: Direction) -> ConvexPoly:
    x0, x1, y0, y1 = box
    if d == LEFT:
        return segment((x0, y0), (x0, y1))
    if d == RIGHT:
        return segment((x1, y0), (x1, y1))
    if d == DOWN:
        return segment((x0, y0), (x1, y0))
    return segment((x0, y1), (x1, y1))


def _collinear(a: ConvexPoly, b: ConvexPoly) -> bool:
    (a0, a1), (b0, b1) = a.hverts, b.hverts
    return orient(a0, a1, b0) == 0 and orient(a0, a1, b1) == 0


def check_touch(z0: BlockRecord, z1: BlockRecord, d: Direction, graph: BlockGraph, t: int) -> bool:
    """Exact test of the geometric touch condition (1) at stage-t bodies.
    `verify.check_touch_chain` settles (2), z0 reached, and (3), no reverse
    touch, from the whole chain before it calls this."""
    e0 = _edge_segment(z0.box, d)
    e1 = _edge_segment(z1.box, d.reverse())
    if e0.dim() != 1 or e1.dim() != 1 or not _collinear(e0, e1):
        return False
    body0 = graph.body(z0, t)
    body1 = graph.body(z1, t)
    a, b = e0.hverts
    for i, j in piece_pairs(body0, body1):
        inter = convex_intersection(body0[i], body1[j])
        if inter is None:
            continue
        if inter.dim() == 2 or any(orient(a, b, v) != 0 for v in inter.hverts):
            return False  # bodies meet away from the touch line
    on0 = [meet for p in body0 if (meet := convex_intersection(p, e0)) is not None]
    on1 = [meet for p in body1 if (meet := convex_intersection(p, e1)) is not None]
    # on0 & on1 <= body0 & body1 & e0 <= on0, so on0 == on1 makes both equal
    # the part of the touch line that the two bodies share
    return bool(on0) and region_covers(on0, on1)[0] and region_covers(on1, on0)[0]
