"""Runs benchmark ops inside one Python process; started by run.py.

    worker.py prepare --workload W --seed N
        Imports planarpi and writes the workload's generated inputs.
    worker.py ops --workload W --seed N --trace 0|1 --result FILE
                  [--count K | --seconds S] [--spans FILE] [--corrupt]
                  [--reference]
        Runs ops in-process on the checkout's planarpi, checks each op's
        output after timing it, and writes per-op wall and CPU seconds,
        errors and, when traced, the per-layer metrics of each op to FILE.
        With --reference (fat-cantor only), each op also runs on the
        reference build's `cantor` module, right before or right after the
        checkout's, and must give the same fat levels.

Needs `src` on PYTHONPATH and the checkout root as the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import time

from workloads import (
    BUILDS,
    FAT_POOL,
    FAT_STAGES,
    OUT_DIR,
    WORKLOADS,
    check_fat_levels,
    check_step,
    corrupt_step_output,
    draw_schedules,
    step_argv,
)


def pool_path(seed: int) -> str:
    return f"{OUT_DIR}/fat-cantor-seed{seed}.json"


def prepare(workload: str, seed: int) -> None:
    import planarpi.cli  # noqa: F401  (the import is part of set-up)
    from planarpi.cantor import TreePresentation

    if workload == "fat-cantor":
        pool = draw_schedules(seed, FAT_POOL, lambda p: TreePresentation(p).is_empty(14))
        with open(pool_path(seed), "w") as handle:
            json.dump(pool, handle)


def reference_cantor():
    """The reference build's `cantor` module; it imports only the standard
    library, so it loads beside the checkout's `planarpi`."""
    name = "perfbench_reference_cantor"
    path = f"{BUILDS['reference'].pythonpath}/planarpi/cantor.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cli_op(workload, corrupt: bool) -> dict:
    """One op of a CLI workload through `planarpi.cli.main`."""
    from planarpi.cli import main

    wall, cpu, error = 0.0, 0.0, None
    for k, step in enumerate(workload.steps):
        report_path = f"{OUT_DIR}/{workload.name}-worker{k}.json"
        if os.path.exists(report_path):
            os.unlink(report_path)  # a stale report must not pass the check
        argv = step_argv(step, BUILDS["current"], report_path)
        captured = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        report = b""
        if os.path.exists(report_path):
            with open(report_path, "rb") as handle:
                report = handle.read()
        stdout = captured.getvalue()
        if corrupt:
            stdout, report = corrupt_step_output(step, stdout, report)
        error = error or check_step(step, code, stdout, report)
    return {"wall": wall, "cpu": cpu, "error": error}


def fat_levels(cantor, prune) -> tuple[list, float, float]:
    """A fresh tree and its fat levels 0..12: (levels, wall s, CPU s)."""
    t0, c0 = time.perf_counter(), time.process_time()
    tree = cantor.TreePresentation(prune)
    levels = [cantor.fat_level(tree, s) for s in range(FAT_STAGES)]
    return levels, time.perf_counter() - t0, time.process_time() - c0


def fat_op(prune, corrupt: bool, reference, reference_first: bool) -> dict:
    """One fat-cantor op on the checkout's `cantor`, and on the reference's
    when `reference` is given.  Each side's levels are dropped before the
    other side runs, so neither side's heap holds the other's output."""
    import planarpi.cantor as cantor

    sides = [("current", cantor), ("reference", reference)]
    if reference is None:
        sides.pop()
    elif reference_first:
        sides.reverse()
    op, digests = {"error": None}, {}
    for name, module in sides:
        levels, wall, cpu = fat_levels(module, prune)
        if name == "reference":
            op["ref_wall"] = wall
        else:
            op["wall"], op["cpu"] = wall, cpu
            if corrupt:
                lo, hi = levels[-1].intervals[0]
                levels[-1] = type(levels[-1])(levels[-1].stage, ((lo - 1, hi - 1),) + levels[-1].intervals[1:])
            op["error"] = check_fat_levels(levels)
        digests[name] = hash(tuple(lvl.intervals for lvl in levels))
        del levels
    if op["error"] is None and len(set(digests.values())) > 1:
        op["error"] = "fat levels differ from the reference build's"
    return op


def run_ops(args) -> dict:
    workload = WORKLOADS[args.workload]
    pool = None
    if workload.name == "fat-cantor":
        with open(pool_path(args.seed)) as handle:
            pool = json.load(handle)
    reference = reference_cantor() if args.reference else None
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.keep_spans = args.spans is not None
        tracer.install()
    ops = []
    started = time.perf_counter()
    index = 0
    while True:
        if args.seconds is None:
            if index >= args.count:
                break
        elif ops and time.perf_counter() - started >= args.seconds:
            break
        if tracer is not None:
            tracer.reset()
            tracer.op_id = index
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if pool is None:
                op = cli_op(workload, args.corrupt)
            else:
                op = fat_op(pool[index % len(pool)], args.corrupt, reference, index % 2 == 1)
        except Exception as exc:  # a raising op is a failed op, not a crash
            op = {"wall": time.perf_counter() - wall0, "cpu": time.process_time() - cpu0,
                  "error": f"raised {exc!r}"}
        op["kind"] = index % len(pool) if pool is not None else 0
        if tracer is not None:
            op["metrics"] = tracer.metrics()
        ops.append(op)
        index += 1
    if args.spans is not None:
        tracer.write_spans(args.spans)
    return {"ops": ops}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=["prepare", "ops"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--result", default=None)
    args = parser.parse_args()
    if args.command == "prepare":
        prepare(args.workload, args.seed)
        return
    result = run_ops(args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
