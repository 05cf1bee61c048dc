"""planarpi benchmark: time to a verdict or an enclosure on fixed workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--negative-control]

Run from anywhere inside a planarpi checkout; it needs `src/`, `configs/`
and `BENCHMARK.json`.  Set-up runs five times and reports its median.  The
timed phase then runs ops one after another for up to S seconds: it starts
no op that the same kind of op's last time says would end past S, but runs
every kind at least once.  Each op runs on the checkout's build and on the
reference build (see workloads.py), one right after the other, in turns
which goes first.  Each output is checked after its timer stops.

`op_time_vs_ref` is the checkout's time over the reference build's time for
one op of every kind, taking each kind's median.  Both builds run under the
same load on a shared host, so the ratio holds steady where seconds do not;
the seconds themselves are in the result file as `current_s` and
`reference_s`.

With --trace 0 the last stdout line holds every end-to-end metric of
BENCHMARK.json; with --trace 1 every per-layer metric, from ops run
in-process on the checkout's build with the wrappers of tracer.py,
alternating with untraced in-process ops for `trace.overhead_ratio`.
--negative-control corrupts the output of every op on the checkout's build
before its check, so every op must count as failed.

The full result, with the environment and every sample, goes to
perfbench/out/result-<workload>-seed<N>-trace<T>.json; a readable summary
goes to stderr.  Exit status: 0 if every op passed its check, 1 if not,
2 on bad arguments or an incomplete checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    BUILDS,
    FAT_TRACE_OPS,
    OUT_DIR,
    WORKLOADS,
    Build,
    build_argv,
    check_step,
    corrupt_step_output,
    scenes_dir,
    step_argv,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the program does
REQUIRED = ("BENCHMARK.json", "src/planarpi/cli.py", "configs/cantor-fan-q.json")
CURRENT, REFERENCE = BUILDS["current"], BUILDS["reference"]


class RunTimeout(Exception):
    pass


class Runner:
    """Starts child processes one at a time and reaps each before returning."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline

    def python(self, argv: list[str], stdout_path: str, build: Build = CURRENT) -> dict:
        """Run `python argv` with `build` on its path: exit code, wall and CPU
        seconds, peak RSS in MB."""
        cmd = [sys.executable, *argv]
        env = dict(os.environ, PYTHONPATH=str(ROOT / build.pythonpath), PYTHONHASHSEED="0")
        with open(stdout_path, "wb") as out, open(stdout_path + ".stderr", "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable,
                cmd,
                env,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                    (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
                ],
            )
        reaped = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                timeout = max(0.0, self.deadline - time.perf_counter())
                ready, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                os.close(pidfd)
            if not ready:
                raise RunTimeout(f"{' '.join(argv)} still running at the run's time limit")
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        return {
            "code": os.waitstatus_to_exitcode(status),
            "wall": time.perf_counter() - t0,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }

    def must(self, argv: list[str], stdout_path: str, build: Build = CURRENT) -> dict:
        proc = self.python(argv, stdout_path, build)
        if proc["code"] != 0:
            tail = Path(stdout_path + ".stderr").read_text()[-2000:]
            raise RuntimeError(f"{' '.join(argv)} exited {proc['code']}:\n{tail}")
        return proc

    def worker(self, args: argparse.Namespace, command: str, *extra: str) -> dict:
        argv = ["perfbench/worker.py", command, "--workload", args.workload,
                "--seed", str(args.seed), *extra]
        if args.negative_control:
            argv.append("--corrupt")
        return self.python(argv, f"{OUT_DIR}/worker.stdout")


def setup(runner: Runner, args: argparse.Namespace) -> float:
    """Interpreter start, planarpi import and input preparation on the
    checkout's build, in seconds."""
    t0 = time.perf_counter()
    argv = ["perfbench/worker.py", "prepare", "--workload", args.workload, "--seed", str(args.seed)]
    runner.must(argv, f"{OUT_DIR}/prepare.stdout")
    for stage in WORKLOADS[args.workload].scenes:
        runner.must(["-m", "planarpi.cli", *build_argv(stage, CURRENT)], f"{OUT_DIR}/build.stdout")
    return time.perf_counter() - t0


def prepare_reference(runner: Runner, args: argparse.Namespace) -> None:
    """The reference build's own fan scenes, for its `hausdorff` steps."""
    for stage in WORKLOADS[args.workload].scenes:
        runner.must(["-m", "planarpi.cli", *build_argv(stage, REFERENCE)],
                    f"{OUT_DIR}/build.stdout", REFERENCE)


def run_step(runner: Runner, args: argparse.Namespace, k: int, build: Build) -> tuple[dict, str | None]:
    """Step k as a fresh planarpi process on `build`: the process and what
    is wrong with its output, if anything."""
    step = WORKLOADS[args.workload].steps[k]
    report_path = f"{OUT_DIR}/{args.workload}-{build.name}-report{k}.json"
    stdout_path = f"{OUT_DIR}/{args.workload}-{build.name}-stdout{k}.txt"
    if os.path.exists(report_path):
        os.unlink(report_path)  # a stale report must not pass the check
    proc = runner.python(["-m", "planarpi.cli", *step_argv(step, build, report_path)], stdout_path, build)
    stdout = Path(stdout_path).read_text()
    report = Path(report_path).read_bytes() if os.path.exists(report_path) else b""
    if args.negative_control and build is CURRENT:
        stdout, report = corrupt_step_output(step, stdout, report)
    return proc, check_step(step, proc["code"], stdout, report)


def step_pair(runner: Runner, args: argparse.Namespace, k: int, reference_first: bool) -> dict:
    """One cli op: step k on both builds, one right after the other."""
    op = {"kind": k, "error": None}
    for build in (REFERENCE, CURRENT) if reference_first else (CURRENT, REFERENCE):
        proc, error = run_step(runner, args, k, build)
        if build is CURRENT:
            op.update(wall=proc["wall"], cpu=proc["cpu"], rss_mb=proc["rss_mb"])
        else:
            op["ref_wall"] = proc["wall"]
        if error is not None and op["error"] is None:
            op["error"] = f"{build.name} build: {error}"
    return op


def worker_ops(runner: Runner, args: argparse.Namespace, *extra: str) -> tuple[list[dict], dict]:
    """Ops run in one worker process; a crashed worker counts as one failed op."""
    result_path = f"{OUT_DIR}/worker-result.json"
    if os.path.exists(result_path):
        os.unlink(result_path)
    proc = runner.worker(args, "ops", "--result", result_path, *extra)
    if proc["code"] != 0 or not os.path.exists(result_path):
        tail = Path(f"{OUT_DIR}/worker.stdout.stderr").read_text()[-2000:]
        error = f"worker exited {proc['code']}: {tail}"
        return [{"kind": 0, "wall": proc["wall"], "cpu": proc["cpu"], "error": error}], proc
    with open(result_path) as handle:
        return json.load(handle)["ops"], proc


def fits(started: float, last_wall: float, seconds: float) -> bool:
    """Whether one more op taking `last_wall` seconds ends within the run."""
    return time.perf_counter() - started + last_wall <= seconds


def kind_medians(ops: list[dict], key: str) -> float:
    """The sum over op kinds of the median of `key`: the time of one op of
    every kind, each kind counted once however often it ran."""
    kinds: dict[int, list[float]] = {}
    for op in ops:
        kinds.setdefault(op["kind"], []).append(op[key])
    return sum(statistics.median(values) for values in kinds.values())


def pair_wall(op: dict) -> float:
    return op["wall"] + op.get("ref_wall", 0.0)


def timed_run(runner: Runner, args: argparse.Namespace, setups: list[float]) -> tuple[dict, list[dict]]:
    """Ops on both builds until time is up; every cli step runs at least once."""
    steps = WORKLOADS[args.workload].steps
    if steps:
        ops: list[dict] = []
        started = time.perf_counter()
        while len(ops) < len(steps) or fits(started, pair_wall(ops[len(ops) - len(steps)]), args.seconds):
            k = len(ops) % len(steps)
            ops.append(step_pair(runner, args, k, reference_first=(len(ops) // len(steps) + k) % 2 == 1))
        peak = max(op["rss_mb"] for op in ops)
    else:
        ops, proc = worker_ops(runner, args, "--seconds", str(args.seconds), "--reference")
        peak = proc["rss_mb"]
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak}
    timed = [op for op in ops if "ref_wall" in op]  # a crashed worker times nothing
    if timed:
        metrics["current_s"] = kind_medians(timed, "wall")
        metrics["reference_s"] = kind_medians(timed, "ref_wall")
        metrics["op_time_vs_ref"] = metrics["current_s"] / metrics["reference_s"]
    return metrics, ops


def traced_run(runner: Runner, args: argparse.Namespace) -> tuple[dict, list[dict]]:
    """Alternate untraced and traced worker processes until time is up."""
    per_process = ["--count", str(FAT_TRACE_OPS if not WORKLOADS[args.workload].steps else 1)]
    runs: dict[int, list[dict]] = {0: [], 1: []}
    started = time.perf_counter()
    mode, last_wall = 0, 0.0
    while not runs[0] or not runs[1] or fits(started, last_wall, args.seconds):
        extra = ["--trace", str(mode), *per_process]
        if mode and not runs[1]:
            extra += ["--spans", f"{OUT_DIR}/spans-{args.workload}.json"]
        ops, proc = worker_ops(runner, args, *extra)
        runs[mode].extend(ops)
        mode, last_wall = mode ^ 1, proc["wall"]
    traced = [op for op in runs[1] if "metrics" in op]
    metrics = {}
    if traced:
        for name in traced[0]["metrics"]:
            metrics[name] = statistics.median(op["metrics"][name] for op in traced)
        metrics["trace.overhead_ratio"] = statistics.median(
            op["wall"] for op in traced
        ) / statistics.median(op["wall"] for op in runs[0])
    return metrics, runs[0] + runs[1]


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git installed
        return None
    return out.stdout.strip() or None


def environment(args: argparse.Namespace) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "negative_control": args.negative_control,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="planarpi benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.chdir(ROOT)
    # Every process of the run inherits one CPU, so that both builds of a
    # pair run on the same core and see the same load from other tenants.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: incomplete planarpi checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    for build in BUILDS.values():
        os.makedirs(scenes_dir(build), exist_ok=True)
    runner = Runner(deadline)
    try:
        if args.trace:
            setups = [setup(runner, args)]
            metrics, ops = traced_run(runner, args)
        else:
            setups = [setup(runner, args) for _ in range(SETUP_REPEATS)]
            prepare_reference(runner, args)
            metrics, ops = timed_run(runner, args, setups)
    except (RunTimeout, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    failed = sum(op["error"] is not None for op in ops)
    line = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    metrics["fail_ratio"] = failed / len(ops)
    record = {
        "environment": environment(args),
        "metrics": metrics,
        "setup_samples_s": setups,
        "ops": ops,
        "result": line,
    }
    result_path = f"{OUT_DIR}/result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as handle:
        json.dump(record, handle, indent=1)

    env = record["environment"]
    print(
        f"{args.workload} seed={args.seed} python={env['python']} nproc={env['nproc']} "
        f"git={env['git_sha'] or 'n/a'} src={env['src_sha256'][:12]}",
        file=sys.stderr,
    )
    extra = "".join(f" {k}={metrics[k]:.4g}" for k in ("fail_ratio", "current_s", "reference_s") if k in metrics)
    print(f"  ops={len(ops)} failed={failed}{extra}", file=sys.stderr)
    for name, item in line["metrics"].items():
        print(f"  {name:40s} {item['value']:.6g} {item['unit']}", file=sys.stderr)
    for op in ops:
        if op["error"] is not None:
            print(f"  failed op: {op['error']}", file=sys.stderr)
            break
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
