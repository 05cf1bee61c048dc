"""Every function in `planarpi` is reached by a CLI command, or is listed
here with the reason it is not.

The test runs `cli.main` in-process under a profile hook that records each
code object entered: `build --stage 3` and `render` on every config, `verify`
with every check the construction offers over stages 0:3, `hausdorff`
between stages 2 and 3 of the fan and of dendrite-d, and a `build` that
lacks `--out`.  It compares the qualified names reached with every
module-level function and class method that `ast` finds in the package.  A
function that no command reaches fails the test unless it is listed, and so
does a listed function that a command reaches.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import planarpi
from planarpi.cli import CONSTRUCTIONS, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PACKAGE = Path(planarpi.__file__).resolve().parent

# "module:qualname" of each function no command reaches, by reason
UNREACHED: dict[str, set[str]] = {
    "the acceptance criteria call it (tests/test_acceptance.py)": {
        "cantor:FatCantorLevel.intervals",
        "cantor:TreePresentation.survives",
        "cantor:full_tree",
        "cantor:pad_eps",
        "continua.regions:normalize_level",
        "continua.regions:v_region",
        "continua.trees:RecoveredTree.__init__",
        "continua.trees:probe_balls",
        "continua.trees:recover_tree",
        "verify:check_hausdorff_bound",
    },
    "only probe_balls or recover_tree calls it": {
        "continua.trees:_full_tree_edges_near",
        "continua.trees:plot_point",
    },
    "perfbench/tracer.py TARGETS names it (clip_halfplane and subtract_poly are also "
    "acceptance calls)": {
        "cantor:cantor_coord",
        "continua.fanq:build_cantor_fan_q",
        "geom:ConvexPoly.bbox",
        "geom:clip_halfplane",
        "geom:squared_distance",
        "geom:subtract_poly",
    },
    "runs when the CLI module is imported, before any command": {
        "cli:Construction.__init__",
    },
    "dunders for tests and debugging": {
        "__init__:Record.__hash__",
        "__init__:Record.__repr__",
        "geom:ConvexPoly.__eq__",
        "geom:ConvexPoly.__repr__",
        "geom:DistanceEnclosure.__repr__",
        "geom:RegionSnapshot.__repr__",
    },
    "the stage-bounded view of a script, for outer snapshots (ROADMAP item 5)": {
        "cesets:EnumerationScript.members_at",
    },
}


def defined_names() -> set[str]:
    """`module:name` of every module-level function and class method."""
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names.add(f"{module}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(
                    f"{module}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
    return names


def reached_names(run) -> set[str]:
    """`module:qualname` of every package function that `run()` enters."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # a cached result would hide the call that makes it
    for module in [m for name, m in sys.modules.items() if name.startswith("planarpi")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    names = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if path.is_relative_to(PACKAGE):
            module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
            names.add(f"{module}:{code.co_qualname}")
    return names


def run_every_command(tmp: Path) -> None:
    for config in sorted(CONFIGS.glob("*.json")):
        name = config.stem
        scene = tmp / f"{name}-3.json"
        argvs = [
            ["build", "--config", str(config), "--stage", "3", "--out", str(scene)],
            ["render", "--scene", str(scene), "--out", str(tmp / f"{name}.svg")],
        ]
        checks = CONSTRUCTIONS[json.loads(config.read_text())["construction"]].checks
        if checks:
            argvs.append(["verify", "--config", str(config), "--checks", ",".join(checks),
                          "--stage-range", "0:3", "--out", str(tmp / f"{name}-report.json")])
        for argv in argvs:
            assert main(argv) == 0, argv
    # the fan's distance is met at a vertex; dendrite-d's needs refinement
    for name in ("cantor-fan-q", "dendrite-d"):
        scene = tmp / f"{name}-2.json"
        assert main(["build", "--config", str(CONFIGS / f"{name}.json"), "--stage", "2",
                     "--out", str(scene)]) == 0
        assert main(["hausdorff", "--scene-a", str(scene), "--scene-b",
                     str(tmp / f"{name}-3.json")]) == 0
    # a usage error, which argparse reports through the CLI's one-line path
    assert main(["build", "--config", str(CONFIGS / "dendrite-d.json")]) == 2


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects have no co_qualname")
def test_every_unreached_function_is_listed(tmp_path):
    assert all(UNREACHED.values()), "a reason that lists no name"
    listed = [name for names in UNREACHED.values() for name in names]
    assert len(listed) == len(set(listed))
    reached = reached_names(lambda: run_every_command(tmp_path))
    defined = defined_names()
    unreached = defined - reached
    assert sorted(unreached - set(listed)) == [], "reached by no command and not listed"
    assert sorted(set(listed) - unreached) == [], "listed but reached, or gone"
