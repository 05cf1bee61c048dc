"""Command-line surface: build constructions, verify invariants, render, measure.

All outputs are deterministic functions of the config JSON; files are written
atomically.  Bad input exits 2 with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from . import Record, __version__, check_natural
from .geom import ConvexPoly, RegionSnapshot, frac_str, hausdorff_enclosure

if TYPE_CHECKING:
    from .cantor import TreePresentation
    from .cesets import EnumerationScript, SequenceFamily
    from .continua.fanq import BlockGraph


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".planarpi-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


# -- inputs: each bad one raises a one-line ValueError, which main() reports ----


def _read_json(path: str, what: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not JSON: {exc}") from None


def _stage_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
        raise ValueError(f"--stage-range must be LO:HI with 0 <= LO <= HI, got {text!r}")
    return int(lo), int(hi)


def _load_config(path: str) -> dict:
    """A JSON object naming a known construction, with a natural-number
    `depth` and `search_bound` where given (a null bound means the default)."""
    config = _read_json(path, "config")
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object")
    _construction(config)
    if "depth" in config:
        check_natural(config["depth"], "config field 'depth'")
    if config.get("search_bound") is not None:
        check_natural(config["search_bound"], "config field 'search_bound'")
    return config


def _field(config: dict, key: str, parse, default):
    try:
        return parse(config.get(key, default))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"config field {key!r}: {exc}") from None


def _tree_from(config: dict) -> TreePresentation:
    from .cantor import TreePresentation

    return _field(config, "P", TreePresentation.from_json, {"prune": []})


def _script_from(config: dict) -> EnumerationScript:
    from .cesets import EnumerationScript

    return _field(config, "A", EnumerationScript.from_json, [])


def _family_from(config: dict) -> SequenceFamily:
    from .cesets import SequenceFamily

    return _field(config, "families", SequenceFamily.from_json, [])


def _search_bound(config: dict, stage: int) -> int:
    """A dendroid-k config's `search_bound` at `stage`, which must reach the
    stage's last comb index; null or absent means max(stage, number of families)."""
    bound = config.get("search_bound")
    if bound is None:
        return max(stage, len(_family_from(config).members))
    if bound < stage:
        raise ValueError(
            f"config field 'search_bound': must be at least {stage}, "
            f"the last comb index at stage {stage}"
        )
    return bound


def _load_scene(path: str) -> RegionSnapshot:
    doc = _read_json(path, "scene")
    try:
        scene = RegionSnapshot.from_json(doc)
        check_natural(doc["stage"], "stage")
        x0, y0, x1, y1 = scene.frame
        if not (x0 < x1 and y0 < y1):
            raise ValueError("needs a frame with x0 < x1 and y0 < y1")
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed scene {path}: {type(exc).__name__} {exc}") from None
    return scene


def _config_hash(config: dict) -> str:
    import hashlib

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- the construction table ----------------------------------------------------

Snapshots = tuple[list[RegionSnapshot], Optional["BlockGraph"]]
Probe = tuple[dict, ConvexPoly, bool]  # (witness label, removed shape, expected cut)


class Construction(Record):
    """What the CLI knows about one construction.

    `snapshots(config, lo, hi)` replays it once and returns the snapshots of
    stages lo..hi, plus the block graph for the fan machine.  `checks` names
    the checks offered on it, and `cut_probes(config, snap)` yields the
    probes of cut-dichotomy at the snapshot's stage.  Entries import their
    builders when called, never when the table is made, so a run loads only
    the modules of its own construction.
    """

    __slots__ = _fields = ("snapshots", "checks", "cut_probes")

    def __init__(
        self,
        snapshots: Callable[[dict, int, int], Snapshots],
        checks: tuple[str, ...] = (),
        cut_probes: Optional[Callable[[dict, RegionSnapshot], Iterable[Probe]]] = None,
    ):
        self.snapshots = snapshots
        self.checks = checks
        self.cut_probes = cut_probes


def _per_stage(module: str, build: Callable[..., RegionSnapshot]):
    """snapshots() of a builder that makes one stage per call:
    `build(mod, config, stage)`, where `mod` is `planarpi.continua.<module>`."""

    def snapshots(config: dict, lo: int, hi: int) -> Snapshots:
        mod = importlib.import_module(f"{__package__}.continua.{module}")
        return [build(mod, config, s) for s in range(lo, hi + 1)], None

    return snapshots


def _fan_snapshots(config: dict, lo: int, hi: int) -> Snapshots:
    from .continua.fanq import DestinationTrack, q_snapshots

    tree, track = _tree_from(config), _field(config, "B", DestinationTrack, [])
    return q_snapshots(hi, tree, track, lo)


def _dendrite_d_probes(config: dict, snap: RegionSnapshot) -> Iterable[Probe]:
    from .balls import ball_polygon
    from .continua.dendrite import cut_ball, rising_width

    script = _script_from(config)
    return (
        ({"t": t}, ball_polygon(cut_ball(t)), rising_width(script, t) > 0)
        for t in range(snap.stage + 1)
    )


def _dendrite_h_probes(config: dict, snap: RegionSnapshot) -> Iterable[Probe]:
    from .continua.dendrite import rising_width
    from .continua.trees import h_cut_box

    script, depth = _script_from(config), max(snap.stage, 1)
    return (
        ({"t": t}, h_cut_box(t, depth), rising_width(script, t) > 0)
        for t in range(snap.stage + 1)
    )


def _dendroid_k_probes(config: dict, snap: RegionSnapshot) -> Iterable[Probe]:
    from .continua.comb import comb_cut_box, comb_width

    fam, stage = _family_from(config), snap.stage
    bound = _search_bound(config, stage)
    return (
        ({"t": t, "u": u}, comb_cut_box(t, u), comb_width(fam, t, u, stage, bound) > 0)
        for t in range(stage + 1)
        for u in range(stage + 1)
    )


CHECK_NAMES = ("nesting", "connectivity", "cut-dichotomy", "touch-chain")
SPANNING_CHECKS = ("nesting", "connectivity")  # the checks that read every stage lo..hi
# the dendrites emit growing truncations of their limits, so nesting fails
# on them over every stage range and is not offered
GROWING_CHECKS = ("connectivity", "cut-dichotomy")

CONSTRUCTIONS: dict[str, Construction] = {
    "basic-dendrite": Construction(_per_stage("examples", lambda m, c, s: m.basic_dendrite(s))),
    "harmonic-comb": Construction(_per_stage("examples", lambda m, c, s: m.harmonic_comb(s))),
    "cantor-fan": Construction(_per_stage("examples", lambda m, c, s: m.cantor_fan(s))),
    "plotted-tree": Construction(
        _per_stage(
            "trees", lambda m, c, s: m.plotted_tree(_tree_from(c), s, c.get("depth", max(s, 1)))
        )
    ),
    "dendrite-d": Construction(
        _per_stage("dendrite", lambda m, c, s: m.build_dendrite_d(s, _script_from(c))),
        GROWING_CHECKS,
        _dendrite_d_probes,
    ),
    "dendrite-h": Construction(
        _per_stage(
            "trees", lambda m, c, s: m.build_dendrite_h(s, _script_from(c), _tree_from(c))
        ),
        GROWING_CHECKS,
        _dendrite_h_probes,
    ),
    "dendroid-k": Construction(
        _per_stage(
            "comb", lambda m, c, s: m.build_dendroid_k(s, _family_from(c), _search_bound(c, s))
        ),
        GROWING_CHECKS,
        _dendroid_k_probes,
    ),
    "cantor-fan-q": Construction(_fan_snapshots, ("nesting", "connectivity", "touch-chain")),
}


def _construction(config: dict) -> Construction:
    kind = config.get("construction")
    if not isinstance(kind, str) or kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction: {kind}")
    return CONSTRUCTIONS[kind]


def build_scene(config: dict, stage: int) -> dict:
    """Scene JSON (plus block metadata for the fan machine)."""
    (region,), graph = _construction(config).snapshots(config, stage, stage)
    doc = region.to_json()
    doc["meta"] = {"tool": f"planarpi {__version__}", "config_sha256": _config_hash(config)}
    if graph is not None:
        doc["blocks"] = graph.to_json()
    return doc


def _run_checks(config: dict, checks: list[str], lo: int, hi: int):
    """Reports of the named checks, from one replay of the construction that
    builds stages lo..hi when a check reads them all, else only stage hi."""
    from .verify import check_connectivity, check_cut_dichotomy, check_nesting, check_touch_chain

    construction, kind = _construction(config), config["construction"]
    for check in checks:
        if check not in CHECK_NAMES:
            raise ValueError(f"unknown check name: {check}")
        if check not in construction.checks:
            raise ValueError(f"{check} not supported for {kind}")
    first = lo if any(check in SPANNING_CHECKS for check in checks) else hi
    snaps, graph = construction.snapshots(config, first, hi)
    last = snaps[-1]
    run = {
        "nesting": lambda: check_nesting(snaps),
        "connectivity": lambda: check_connectivity(snaps),
        "cut-dichotomy": lambda: check_cut_dichotomy(
            kind, last, construction.cut_probes(config, last)
        ),
        "touch-chain": lambda: check_touch_chain(graph),
    }
    return [run[check]() for check in checks]


def cmd_build(args) -> int:
    config = _load_config(args.config)
    stage = args.stage if args.stage is not None else config.get("stage", 0)
    doc = build_scene(config, check_natural(stage, "stage"))
    _atomic_write(args.out, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def cmd_verify(args) -> int:
    from .verify import exit_code, reports_to_json

    config = _load_config(args.config)
    lo, hi = _stage_range(args.stage_range)
    reports = _run_checks(config, args.checks.split(","), lo, hi)
    _atomic_write(args.out, reports_to_json(reports) + "\n")
    for report in reports:
        print(f"{report.check_name}: {report.verdict}")
    return exit_code(reports)


def cmd_render(args) -> int:
    if args.width <= 0:
        raise ValueError(f"--width must be positive, got {args.width}")
    from .svg import render_svg

    region = _load_scene(args.scene)
    _atomic_write(args.out, render_svg(region, args.width))
    return 0


def cmd_hausdorff(args) -> int:
    check_natural(args.tol_exp, "--tol-exp")
    a, b = _load_scene(args.scene_a), _load_scene(args.scene_b)
    enc = hausdorff_enclosure(a, b, args.tol_exp)
    print(f"{frac_str(enc.low)} {frac_str(enc.high)}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="planarpi",
        description="Build and verify exact finite-stage snapshots of planar co-c.e. continua",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a Scene JSON for a construction")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--stage", type=int, default=None)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run named checkers over a stage range")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--checks", required=True, help="comma-separated check names")
    p_verify.add_argument("--stage-range", default="0:4")
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="render a Scene JSON to SVG")
    p_render.add_argument("--scene", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--width", type=int, default=640)
    p_render.set_defaults(func=cmd_render)

    p_h = sub.add_parser("hausdorff", help="certified Hausdorff distance enclosure")
    p_h.add_argument("--scene-a", required=True)
    p_h.add_argument("--scene-b", required=True)
    p_h.add_argument("--tol-exp", type=int, default=12)
    p_h.set_defaults(func=cmd_hausdorff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
