"""Command-line surface: build constructions, verify invariants, render, measure.

All outputs are deterministic functions of the config JSON; files are written
atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Optional

from . import __version__
from .cantor import TreePresentation
from .cesets import EnumerationScript, SequenceFamily
from .continua import (
    basic_dendrite,
    build_dendrite_d,
    build_dendrite_h,
    build_dendroid_k,
    cantor_fan,
    harmonic_comb,
    plotted_tree,
)
from .continua.fanq import DestinationTrack, build_cantor_fan_q, q_snapshots
from .geom import RegionSnapshot, frac_str, hausdorff_enclosure
from .svg import render_svg
from .verify import (
    check_connectivity,
    check_cut_dichotomy,
    check_nesting,
    check_touch_chain,
    exit_code,
    reports_to_json,
)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".planarpi-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _tree_from(config: dict) -> TreePresentation:
    return TreePresentation.from_json(config.get("P", {"prune": []}))


def _script_from(config: dict, key: str = "A") -> EnumerationScript:
    return EnumerationScript.from_json(config.get(key, []))


def _family_from(config: dict) -> SequenceFamily:
    return SequenceFamily.from_json(config.get("families", []))


def build_scene(config: dict, stage: int) -> dict:
    """Scene JSON (plus block metadata for the fan machine)."""
    kind = config["construction"]
    blocks = None
    if kind == "basic-dendrite":
        region = basic_dendrite(stage)
    elif kind == "harmonic-comb":
        region = harmonic_comb(stage)
    elif kind == "cantor-fan":
        region = cantor_fan(stage)
    elif kind == "plotted-tree":
        region = plotted_tree(_tree_from(config), stage, config.get("depth", max(stage, 1)))
    elif kind == "dendrite-d":
        region = build_dendrite_d(stage, _script_from(config))
    elif kind == "dendrite-h":
        region = build_dendrite_h(stage, _script_from(config), _tree_from(config))
    elif kind == "dendroid-k":
        region = build_dendroid_k(stage, _family_from(config), config.get("search_bound"))
    elif kind == "cantor-fan-q":
        track = DestinationTrack(config.get("B", []))
        region, graph = build_cantor_fan_q(stage, _tree_from(config), track)
        blocks = graph.to_json()
    else:
        raise ValueError(f"unknown construction: {kind}")
    doc = region.to_json()
    doc["meta"] = {"tool": f"planarpi {__version__}", "config_sha256": _config_hash(config)}
    if blocks is not None:
        doc["blocks"] = blocks
    return doc


def cmd_build(args) -> int:
    config = _load_config(args.config)
    stage = args.stage if args.stage is not None else config.get("stage", 0)
    try:
        doc = build_scene(config, stage)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _atomic_write(args.out, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _run_checks(config: dict, checks: list[str], lo: int, hi: int):
    kind = config["construction"]
    reports = []
    for check in checks:
        if check == "nesting" or check == "connectivity":
            if kind == "cantor-fan-q":
                track = DestinationTrack(config.get("B", []))
                snaps, _ = q_snapshots(hi, _tree_from(config), track)
                snaps = snaps[lo:]
            elif kind == "dendrite-d":
                snaps = [build_dendrite_d(s, _script_from(config)) for s in range(lo, hi + 1)]
            elif kind == "dendroid-k":
                snaps = [
                    build_dendroid_k(s, _family_from(config), config.get("search_bound"))
                    for s in range(lo, hi + 1)
                ]
            elif kind == "dendrite-h":
                snaps = [
                    build_dendrite_h(s, _script_from(config), _tree_from(config))
                    for s in range(lo, hi + 1)
                ]
            else:
                raise ValueError(f"{check} not supported for {kind}")
            if check == "nesting":
                reports.append(check_nesting(snaps))
            else:
                reports.append(check_connectivity(snaps))
        elif check == "touch-chain":
            if kind != "cantor-fan-q":
                raise ValueError("touch-chain requires the fan machine")
            track = DestinationTrack(config.get("B", []))
            tree = _tree_from(config)
            _, graph = build_cantor_fan_q(hi, tree, track)
            reports.append(check_touch_chain(graph, tree, hi))
        elif check == "cut-dichotomy":
            if kind == "dendrite-d":
                reports.append(
                    check_cut_dichotomy("dendrite-d", hi, script=_script_from(config))
                )
            elif kind == "dendroid-k":
                reports.append(
                    check_cut_dichotomy(
                        "dendroid-k",
                        hi,
                        family=_family_from(config),
                        search_bound=config.get("search_bound"),
                    )
                )
            elif kind == "dendrite-h":
                reports.append(
                    check_cut_dichotomy(
                        "dendrite-h", hi, script=_script_from(config), tree=_tree_from(config)
                    )
                )
            else:
                raise ValueError(f"cut-dichotomy not supported for {kind}")
        else:
            raise ValueError(f"unknown check name: {check}")
    return reports


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    lo, hi = (int(v) for v in args.stage_range.split(":"))
    checks = args.checks.split(",")
    try:
        reports = _run_checks(config, checks, lo, hi)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _atomic_write(args.out, reports_to_json(reports) + "\n")
    for report in reports:
        print(f"{report.check_name}: {report.verdict}")
    return exit_code(reports)


def cmd_render(args) -> int:
    with open(args.scene) as handle:
        doc = json.load(handle)
    region = RegionSnapshot.from_json(doc)
    _atomic_write(args.out, render_svg(region, args.width))
    return 0


def cmd_hausdorff(args) -> int:
    with open(args.scene_a) as handle:
        a = RegionSnapshot.from_json(json.load(handle))
    with open(args.scene_b) as handle:
        b = RegionSnapshot.from_json(json.load(handle))
    try:
        enc = hausdorff_enclosure(a, b, args.tol_exp)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
