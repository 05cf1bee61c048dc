"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop with one caller: an op starts only after the
previous one has finished.  `cli-suite` runs each step of an op as a fresh
`python -m planarpi.cli` process, which is what the `planarpi` console
script runs.  `fat-cantor` calls the library in-process.

Each op runs on two builds of planarpi, one right after the other: the
checkout's `src/` and the frozen reference build in `perfbench/reference/`,
a copy of `src/planarpi` and of the configs the steps read, taken at commit
69367c4.  Both must give the same outputs.

Expected outputs were recorded from commit 69367c4 on Python 3.11.7.
Report bytes and exit codes must match them exactly.  A Hausdorff enclosure
need not match: any narrow enough enclosure that overlaps the recorded one
is correct, because two valid enclosures of one distance meet.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

OUT_DIR = "perfbench/out"
TOL_EXP = 12
FAT_STAGES = 13  # fat_level(tree, s) for s = 0..12
FAT_POOL = 128  # schedules drawn per seed; untraced ops cycle through them
FAT_TRACE_OPS = 16  # the traced pass: the first schedules of the pool


@dataclass(frozen=True)
class Build:
    """A planarpi source tree that ops run on."""

    name: str
    pythonpath: str  # the directory that holds the `planarpi` package
    configs: str  # the directory that holds the configs the steps read


BUILDS = {
    b.name: b
    for b in (
        Build("current", "src", "configs"),
        Build("reference", "perfbench/reference", "perfbench/reference/configs"),
    )
}


@dataclass(frozen=True)
class Step:
    """One `planarpi` invocation inside an op and what it must produce.
    `{configs}` and `{scenes}` in args stand for the build's directories."""

    args: tuple[str, ...]
    report_sha256: Optional[str] = None  # the `--out` report of `verify`
    enclosure: Optional[tuple[Fraction, Fraction]] = None  # `hausdorff` stdout


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...] = ()  # empty for the library workload
    scenes: tuple[int, ...] = ()  # fan stages built by `planarpi build` in set-up


def _verify(config: str, checks: str, stages: str, sha: str) -> Step:
    args = ("verify", "--config", f"{{configs}}/{config}.json", "--checks", checks,
            "--stage-range", stages)
    return Step(args=args, report_sha256=sha)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-suite",
            steps=(
                # the fan construction: nesting, connectivity and touch-chain
                _verify(
                    "cantor-fan-q", "nesting,connectivity,touch-chain", "0:6",
                    "3c240ef2a6ce4ac94e3bc66559ab2d30a1a5781da15f5f6564cd09fc5a528b01",
                ),
                # the cut dichotomy on the three dendrites
                _verify(
                    "dendroid-k", "cut-dichotomy", "0:8",
                    "bc067bf2c6942abc91bc59214c37a4dff6f891a68ac1fe58e94a216590a2d12d",
                ),
                _verify(
                    "dendrite-h", "cut-dichotomy", "0:6",
                    "5a7f0ba5e2c58624ed5f1cb6525a0f046d28d202f3a17671cd4ccba858c79357",
                ),
                _verify(
                    "dendrite-d", "cut-dichotomy", "0:8",
                    "f9a23658c5699f696459c16f63030e46e2d0a7d1de4303d2ef4ba0e2186c16f2",
                ),
                # a certified Hausdorff enclosure between fan stages 2 and 3
                Step(
                    args=("hausdorff", "--scene-a", "{scenes}/q2.json",
                          "--scene-b", "{scenes}/q3.json", "--tol-exp", str(TOL_EXP)),
                    enclosure=(Fraction(629, 16384), Fraction(2517, 65536)),
                ),
            ),
            scenes=(2, 3),
        ),
        Workload("fat-cantor"),
    )
}


def scenes_dir(build: Build) -> str:
    """Where set-up writes the fan scenes that `build` makes."""
    return f"{OUT_DIR}/scenes-{build.name}"


def step_argv(step: Step, build: Build, report_path: str) -> list[str]:
    """CLI arguments of a step on `build`; `verify` writes its report to
    report_path."""
    args = [a.format(configs=build.configs, scenes=scenes_dir(build)) for a in step.args]
    if step.report_sha256 is not None:
        args += ["--out", report_path]
    return args


def build_argv(stage: int, build: Build) -> list[str]:
    return ["build", "--config", f"{build.configs}/cantor-fan-q.json", "--stage", str(stage),
            "--out", f"{scenes_dir(build)}/q{stage}.json"]


# -- output checks ---------------------------------------------------------


def corrupt_step_output(step: Step, stdout: str, report: bytes) -> tuple[str, bytes]:
    """Negative control: flip a verdict in the report, or move the enclosure
    clear of the reference."""
    if step.report_sha256 is not None:
        report = report.replace(b'"pass"', b'"fail"', 1)
    if step.enclosure is not None:
        low, high = (Fraction(v) for v in stdout.split())
        stdout = f"{low + 1} {high + 1}\n"
    return stdout, report


def check_step(step: Step, exit_code: int, stdout: str, report: bytes) -> Optional[str]:
    """None if the step's outputs are correct, else what is wrong."""
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if step.report_sha256 is not None:
        digest = hashlib.sha256(report).hexdigest()
        if digest != step.report_sha256:
            return f"report sha256 {digest[:16]}..., expected {step.report_sha256[:16]}..."
    if step.enclosure is not None:
        try:
            low, high = (Fraction(v) for v in stdout.split())
        except ValueError:
            return f"unparsable enclosure {stdout.strip()!r}"
        ref_low, ref_high = step.enclosure
        if not low <= high or high - low > Fraction(1, 1 << TOL_EXP):
            return f"enclosure [{low}, {high}] is not a 2^-{TOL_EXP} interval"
        if high < ref_low or ref_high < low:
            return f"enclosure [{low}, {high}] misses the recorded [{ref_low}, {ref_high}]"
    return None


def check_fat_levels(levels) -> Optional[str]:
    """Acceptance criterion 3 on fat levels 0..12 of one tree: siblings are
    disjoint, each level nests in the previous one, and every later level
    stays inside the earlier level's margin."""
    if len(levels) != FAT_STAGES or any(not lvl.intervals for lvl in levels):
        return "missing or empty fat level"
    ivs = [lvl.intervals for lvl in levels]
    for s, row in enumerate(ivs):
        for (_, b0), (a1, _) in zip(row, row[1:]):
            if not b0 < a1:
                return f"level {s}: sibling intervals meet"
    for s in range(1, FAT_STAGES):
        prev, idx = ivs[s - 1], 0
        for lo, hi in ivs[s]:
            while idx < len(prev) and prev[idx][1] < hi:
                idx += 1
            if idx == len(prev) or not (prev[idx][0] <= lo and hi <= prev[idx][1]):
                return f"level {s}: interval [{lo}, {hi}] not nested in level {s - 1}"
    for s in range(FAT_STAGES):
        eps_s = Fraction(1, 3 ** (s + 2))
        l_s, r_s = ivs[s][0][0] + eps_s, ivs[s][-1][1] - eps_s
        for t in range(s, FAT_STAGES):
            eps_t = Fraction(1, 3 ** (t + 2))
            if ivs[t][0][0] < l_s - eps_t or ivs[t][-1][1] > r_s + eps_t:
                return f"level {t} leaves the margin of level {s}"
    return None


def draw_schedules(seed: int, count: int, is_empty) -> list[list]:
    """Pruning schedules drawn as acceptance criterion 3 draws them.  A draw
    is kept when `is_empty(prune)` is false: its tree is non-empty at stage 14."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        prune = []
        for _ in range(rng.randint(0, 8)):
            length = rng.randint(1, 8)
            sigma = "".join(rng.choice("01") for _ in range(length))
            prune.append([sigma, rng.randint(0, 10)])
        if not is_empty(prune):
            out.append(prune)
    return out
