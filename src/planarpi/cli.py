"""Command-line surface: build constructions, verify invariants, render, measure.

All outputs are deterministic functions of the config JSON; files are written
atomically.  Bad input exits 2 with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from . import Record, __version__, check_natural
from .geom import ConvexPoly, RegionSnapshot, frac_str, hausdorff_enclosure

if TYPE_CHECKING:
    from .cantor import TreePresentation
    from .cesets import EnumerationScript
    from .continua.fanq import BlockGraph


@contextmanager
def _output(path: str):
    """A handle on a temporary file beside `path`, made before the block's
    work so that an `--out` that cannot be written fails first.  The file
    replaces `path` when the block ends and is removed if it raises; the
    block does no other I/O, so every OSError is the output's."""
    tmp = None
    try:
        if os.path.isdir(path):  # else only the final rename would find it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".planarpi-")
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# -- inputs: each bad one raises a one-line ValueError, which main() reports ----


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise ValueError(f"{what} {path} is not JSON: {exc}") from None


def _is_natural(text: str) -> bool:
    """The one rule for a natural number on the command line, as `frac` reads
    scene numbers: ASCII digits only, so no sign, `_`, space or other script."""
    return text.isascii() and text.isdecimal()


def _natural(text: str) -> int:
    """The argparse type of `--stage`, `--tol-exp` and `--width`."""
    if not _is_natural(text):
        raise argparse.ArgumentTypeError(f"must be a natural number, got {text!r}")
    return int(text)


def _stage_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not (_is_natural(lo) and _is_natural(hi) and int(lo) <= int(hi)):
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
    except KeyError as exc:
        raise ValueError(f"config field {key!r}: missing key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"config field {key!r}: {exc}") from None


def _tree_from(config: dict) -> TreePresentation:
    from .cantor import TreePresentation

    return _field(config, "P", TreePresentation.from_json, {"prune": []})


def _script_from(config: dict) -> EnumerationScript:
    from .cesets import EnumerationScript

    return _field(config, "A", EnumerationScript.from_json, [])


def _search_bound(config: dict, lo: int, hi: int) -> Optional[int]:
    """A dendroid-k config's `search_bound`, which must reach the last comb
    index of each stage lo..hi; null or absent leaves the builder's default."""
    bound = config.get("search_bound")
    if bound is not None and bound < hi:
        stage = max(lo, bound + 1)  # the first stage it does not reach
        raise ValueError(
            f"config field 'search_bound': must be at least {stage}, "
            f"the last comb index at stage {stage}"
        )
    return bound


def _load_scene(path: str) -> RegionSnapshot:
    doc = _read_json(path, "scene")
    try:
        check_natural(doc["stage"], "stage")  # before the snapshot's int() of it
        scene = RegionSnapshot.from_json(doc)
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

Probe = tuple[dict, ConvexPoly, bool]  # (witness label, removed shape, expected cut)
Replay = tuple[list[RegionSnapshot], Optional["BlockGraph"], Iterable[Probe]]


class Construction(Record):
    """What the CLI knows about one construction.

    `replay(config, lo, hi)` parses the config's inputs once and returns,
    from those same objects, the snapshots of stages lo..hi, the block graph
    of the fan machine (else None) and a lazy iterable of the probes of
    cut-dichotomy at stage hi.  `checks` names the checks offered on it.
    Replays import their builders when called, never when the table is
    made, so a run loads only the modules of its own construction.
    """

    __slots__ = _fields = ("replay", "checks")

    def __init__(self, replay: Callable[[dict, int, int], Replay], checks: tuple[str, ...] = ()):
        self.replay = replay
        self.checks = checks


def _example(config: dict, lo: int, hi: int) -> Replay:
    """The replay of a fixed example, such as `examples.basic_dendrite` for
    `basic-dendrite`; it reads no input."""
    from .continua import examples

    build = getattr(examples, config["construction"].replace("-", "_"))
    return [build(s) for s in range(lo, hi + 1)], None, ()


def _plotted_tree(config: dict, lo: int, hi: int) -> Replay:
    from .continua.trees import plotted_tree

    tree = _tree_from(config)
    snaps = [plotted_tree(tree, s, config.get("depth", max(s, 1))) for s in range(lo, hi + 1)]
    return snaps, None, ()


def _dendrite_d(config: dict, lo: int, hi: int) -> Replay:
    from .balls import ball_polygon
    from .continua.dendrite import build_dendrite_d, cut_ball, rising_width

    script = _script_from(config)
    probes = (
        ({"t": t}, ball_polygon(cut_ball(t)), rising_width(script, t) > 0) for t in range(hi + 1)
    )
    return [build_dendrite_d(s, script) for s in range(lo, hi + 1)], None, probes


def _dendrite_h(config: dict, lo: int, hi: int) -> Replay:
    from .continua.dendrite import rising_width
    from .continua.trees import build_dendrite_h, h_cut_box

    script, tree = _script_from(config), _tree_from(config)
    probes = (({"t": t}, h_cut_box(t, hi), rising_width(script, t) > 0) for t in range(hi + 1))
    return [build_dendrite_h(s, script, tree) for s in range(lo, hi + 1)], None, probes


def _dendroid_k(config: dict, lo: int, hi: int) -> Replay:
    from .cesets import SequenceFamily
    from .continua.comb import build_dendroid_k, comb_cut_box, comb_width

    fam = _field(config, "families", SequenceFamily.from_json, [])
    bound = _search_bound(config, lo, hi)
    probes = (
        ({"t": t, "u": u}, comb_cut_box(t, u), comb_width(fam, t, u, hi, bound) > 0)
        for t in range(hi + 1) for u in range(hi + 1)
    )
    return [build_dendroid_k(s, fam, bound) for s in range(lo, hi + 1)], None, probes


def _fan(config: dict, lo: int, hi: int) -> Replay:
    from .continua.fanq import DestinationTrack, q_snapshots

    tree, track = _tree_from(config), _field(config, "B", DestinationTrack.from_json, [])
    return (*q_snapshots(hi, tree, track, lo), ())


CHECK_NAMES = ("nesting", "connectivity", "cut-dichotomy", "touch-chain")
SPANNING_CHECKS = ("nesting", "connectivity")  # the checks that read every stage lo..hi
# the dendrites emit growing truncations of their limits, so nesting fails
# on them over every stage range and is not offered
GROWING_CHECKS = ("connectivity", "cut-dichotomy")

CONSTRUCTIONS: dict[str, Construction] = {
    "basic-dendrite": Construction(_example),
    "harmonic-comb": Construction(_example),
    "cantor-fan": Construction(_example),
    "plotted-tree": Construction(_plotted_tree),
    "dendrite-d": Construction(_dendrite_d, GROWING_CHECKS),
    "dendrite-h": Construction(_dendrite_h, GROWING_CHECKS),
    "dendroid-k": Construction(_dendroid_k, GROWING_CHECKS),
    "cantor-fan-q": Construction(_fan, ("nesting", "connectivity", "touch-chain")),
}


def _construction(config: dict) -> Construction:
    kind = config.get("construction")
    if not isinstance(kind, str) or kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction: {kind}")
    return CONSTRUCTIONS[kind]


def build_scene(config: dict, stage: int) -> dict:
    """Scene JSON (plus block metadata for the fan machine)."""
    (region,), graph, _ = _construction(config).replay(config, stage, stage)
    doc = region.to_json()
    doc["meta"] = {"tool": f"planarpi {__version__}", "config_sha256": _config_hash(config)}
    if graph is not None:
        doc["blocks"] = graph.to_json()
    return doc


def _run_checks(config: dict, checks: list[str], lo: int, hi: int):
    """Reports of the named checks, from one replay of the construction that
    builds stages lo..hi when a check reads them all, else only stage hi."""
    from .verify import check_connectivity, check_cut_dichotomy, check_nesting, check_touch_chain

    first = lo if any(check in SPANNING_CHECKS for check in checks) else hi
    snaps, graph, probes = _construction(config).replay(config, first, hi)
    run = {
        "nesting": lambda: check_nesting(snaps),
        "connectivity": lambda: check_connectivity(snaps),
        "cut-dichotomy": lambda: check_cut_dichotomy(config["construction"], snaps[-1], probes),
        "touch-chain": lambda: check_touch_chain(graph),
    }
    return [run[check]() for check in checks]


def cmd_build(args) -> int:
    config = _load_config(args.config)
    stage = check_natural(config.get("stage", 0) if args.stage is None else args.stage, "stage")
    with _output(args.out) as out:
        doc = build_scene(config, stage)
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def cmd_verify(args) -> int:
    from .verify import exit_code, reports_to_json

    config = _load_config(args.config)
    lo, hi = _stage_range(args.stage_range)
    checks, kind = args.checks.split(","), config["construction"]
    for check in checks:
        if check not in CHECK_NAMES:
            raise ValueError(f"unknown check name: {check}")
        if check not in CONSTRUCTIONS[kind].checks:
            raise ValueError(f"{check} not supported for {kind}")
    with _output(args.out) as out:
        reports = _run_checks(config, checks, lo, hi)
        out.write(reports_to_json(reports) + "\n")
    for report in reports:
        print(f"{report.check_name}: {report.verdict}")
    return exit_code(reports)


def cmd_render(args) -> int:
    if args.width <= 0:
        raise ValueError(f"--width must be positive, got {args.width}")
    from .svg import render_svg

    region = _load_scene(args.scene)
    with _output(args.out) as out:
        out.write(render_svg(region, args.width))
    return 0


def cmd_hausdorff(args) -> int:
    a, b = _load_scene(args.scene_a), _load_scene(args.scene_b)
    enc = hausdorff_enclosure(a, b, args.tol_exp)
    print(f"{frac_str(enc.low)} {frac_str(enc.high)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argparse with its usage errors raised as the one-line ValueError that
    main() reports, in place of a usage line and an exit."""

    def error(self, message: str):
        raise ValueError(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="planarpi",
        description="Build and verify exact finite-stage snapshots of planar co-c.e. continua",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a Scene JSON for a construction")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--stage", type=_natural, default=None)
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
    p_render.add_argument("--width", type=_natural, default=640)
    p_render.set_defaults(func=cmd_render)

    p_h = sub.add_parser("hausdorff", help="certified Hausdorff distance enclosure")
    p_h.add_argument("--scene-a", required=True)
    p_h.add_argument("--scene-b", required=True)
    p_h.add_argument("--tol-exp", type=_natural, default=12)
    p_h.set_defaults(func=cmd_hausdorff)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
