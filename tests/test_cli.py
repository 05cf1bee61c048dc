"""Command-line surface: determinism, schema errors, rendering, enclosures."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarpi
from planarpi.cli import CHECK_NAMES, CONSTRUCTIONS, main
from planarpi.svg import count_elements

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the directory that holds the `planarpi` under test, for fresh interpreters
SRC = str(Path(planarpi.__file__).resolve().parent.parent)

FIG5_CONFIG = {
    "construction": "dendrite-d",
    "stage": 4,
    "A": [[1, 1], [3, 3]],
}

Q_CONFIG = {
    "construction": "cantor-fan-q",
    "stage": 2,
    "P": {
        "prune": [["0" * k + "1", 0] for k in range(1, 8)]
        + [["1" * k + "0", 0] for k in range(1, 8)]
    },
    "B": [[1, 4], [2, 2]],
}


def write_config(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestBuild:
    def test_dendrite_scene(self, tmp_path):
        cfg = write_config(tmp_path, FIG5_CONFIG)
        out = tmp_path / "scene.json"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["stage"] == 4
        verts = {tuple(v) for p in doc["pieces"] for v in p["verts"]}
        assert ("3/8", "0/1") in verts  # left leg of the gated rising 1

    def test_q_stage_zero_single_box(self, tmp_path):
        config = dict(Q_CONFIG)
        config["stage"] = 0
        cfg = write_config(tmp_path, config)
        out = tmp_path / "q0.json"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # end box plus the single straight-block band covering [0,2/3]x[2/9,7/9]
        assert len(doc["pieces"]) == 2
        assert doc["blocks"]["touch"][0] == [None, 0, "←"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, Q_CONFIG)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["build", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["build", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_schema_violation_nonzero_exit(self, tmp_path):
        bad = dict(FIG5_CONFIG)
        bad["A"] = [[1, 2]]  # element above stage
        cfg = write_config(tmp_path, bad)
        out = tmp_path / "x.json"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2

    def test_empty_tree_nonzero_exit(self, tmp_path):
        bad = {
            "construction": "cantor-fan-q",
            "stage": 1,
            "P": {"prune": [["0", 0], ["1", 0]]},
            "B": [[1, 4]],
        }
        cfg = write_config(tmp_path, bad)
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


class TestVerifyCommand:
    def test_q_checks_pass(self, tmp_path):
        cfg = write_config(tmp_path, Q_CONFIG)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--config",
                str(cfg),
                "--checks",
                "nesting,connectivity,touch-chain",
                "--stage-range",
                "0:2",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        reports = json.loads(report_path.read_text())
        assert [r["verdict"] for r in reports] == ["pass", "pass", "pass"]

    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_config(tmp_path, Q_CONFIG)
        code = main(
            [
                "verify",
                "--config",
                str(cfg),
                "--checks",
                "nope",
                "--stage-range",
                "0:1",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_report_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path, FIG5_CONFIG)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for out in (r1, r2):
            code = main(
                [
                    "verify",
                    "--config",
                    str(cfg),
                    "--checks",
                    "cut-dichotomy",
                    "--stage-range",
                    "0:4",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()


GOOD = json.dumps(FIG5_CONFIG)
NO_FRAME = json.dumps({"stage": 0, "pieces": []})


def scene_with_frame(x0: str, y0: str, x1: str, y1: str) -> str:
    return json.dumps({"stage": 0, "pieces": [], "frame": [[x0, y0], [x1, y1]]})


UNIT_SCENE = scene_with_frame("0", "0", "1", "1")


def scene_with_verts(*verts) -> str:
    return json.dumps(
        {"stage": 0, "pieces": [{"verts": list(verts)}], "frame": [["0", "0"], ["1", "1"]]}
    )


def scene_with_vertex(x) -> str:
    return scene_with_verts([x, "0"])


ZERO_DENOMINATOR_VERTEX = scene_with_vertex("1/0")
HALF_STAGE = json.dumps({"stage": 1.5, "pieces": [], "frame": [["0", "0"], ["1", "1"]]})


HAUSDORFF_ARGV = ["hausdorff", "--scene-a", "s.json", "--scene-b", "s.json"]
# a good scene a.json and a bad one b.json
HAUSDORFF_B_ARGV = ["hausdorff", "--scene-a", "a.json", "--scene-b", "b.json"]


def render_argv(*extra: str) -> list[str]:
    return ["render", "--scene", "s.json", *extra, "--out", "out.json"]


def verify_argv(stage_range: str) -> list[str]:
    return ["verify", "--config", "c.json", "--checks", "nesting", "--stage-range", stage_range,
            "--out", "out.json"]


def build_argv(*extra: str) -> list[str]:
    return ["build", "--config", "c.json", *extra, "--out", "out.json"]


def family_with_triple(*triple) -> str:
    families = [{"name": "V0", "triples": [list(triple)]}]
    return json.dumps({"construction": "dendroid-k", "families": families})


# (case id, files to write, argv with file names relative to the test dir,
# a fragment of the error line, where TMP/ stands for the test dir)
BAD_INPUTS = [
    ("stage-range-one-number", {"c.json": GOOD}, verify_argv("3"), "LO:HI"),
    ("stage-range-reversed", {"c.json": GOOD}, verify_argv("4:2"), "LO <= HI"),
    ("stage-range-not-numbers", {"c.json": GOOD}, verify_argv("a:b"), "LO:HI"),
    ("negative-stage", {"c.json": GOOD}, build_argv("--stage", "-3"), "natural number"),
    ("config-stage-not-a-number", {"c.json": json.dumps({**FIG5_CONFIG, "stage": "4"})},
     build_argv(), "natural number"),
    ("missing-config", {}, build_argv(), "cannot read config"),
    ("malformed-json", {"c.json": "{"}, build_argv(), "not JSON"),
    ("non-object-config", {"c.json": "[1, 2]"}, build_argv(), "JSON object"),
    ("unknown-construction", {"c.json": '{"construction": "nope"}'}, build_argv(),
     "unknown construction"),
    ("config-field-wrong-type", {"c.json": '{"construction": "dendrite-d", "A": 5}'},
     build_argv(), "'A'"),
    ("config-tree-not-an-object", {"c.json": '{"construction": "dendrite-h", "P": []}'},
     build_argv(), "'P'"),
    ("config-depth-null", {"c.json": '{"construction": "plotted-tree", "depth": null}'},
     build_argv(), "'depth'"),
    ("family-component-not-a-number", {"c.json": family_with_triple("a", 2, 2)}, build_argv(),
     "natural number"),
    ("family-stage-not-an-integer", {"c.json": family_with_triple(0, 2.5, 2)}, build_argv(),
     "natural number"),
    ("script-stage-not-an-integer", {"c.json": json.dumps({**FIG5_CONFIG, "A": [[1.5, 1]]})},
     build_argv(), "natural number"),
    ("track-stage-not-an-integer",
     {"c.json": json.dumps({**Q_CONFIG, "B": [[1.5, 4], [2, 2]]})}, build_argv(), "natural number"),
    ("track-stages-not-one-to-n",
     {"c.json": json.dumps({**Q_CONFIG, "B": [[3, 4], [7, 2]]})}, build_argv(), "in turn"),
    ("track-stages-out-of-order",
     {"c.json": json.dumps({**Q_CONFIG, "B": [[2, 2], [1, 4]]})}, build_argv(), "in turn"),
    ("track-stage-repeated",
     {"c.json": json.dumps({**Q_CONFIG, "B": [[1, 4], [1, 2]]})}, build_argv(), "in turn"),
    # the builders' refusals of well-formed configs
    ("script-two-elements-in-one-stage",
     {"c.json": json.dumps({**FIG5_CONFIG, "A": [[1, 1], [1, 0]]})}, build_argv(),
     "at most one element per stage"),
    ("script-element-before-its-stage", {"c.json": json.dumps({**FIG5_CONFIG, "A": [[1, 2]]})},
     build_argv(), "element 2 enumerated before stage 2"),
    ("track-elements-repeated", {"c.json": json.dumps({**Q_CONFIG, "B": [[1, 4], [2, 4]]})},
     build_argv(), "elements must be distinct"),
    ("track-element-zero", {"c.json": json.dumps({**Q_CONFIG, "B": [[1, 0], [2, 2]]})},
     build_argv(), "elements must be >= 1"),
    ("stage-beyond-track", {"c.json": json.dumps(Q_CONFIG)}, build_argv("--stage", "3"),
     "stage exceeds the scripted destination track"),
    ("fan-tree-not-symmetric", {"c.json": json.dumps({**Q_CONFIG, "P": {"prune": [["01", 0]]}})},
     build_argv(), "tree presentation must be symmetric"),
    ("tree-empty", {"c.json": json.dumps(
        {"construction": "dendrite-h", "A": [[1, 1]], "P": {"prune": [["0", 0], ["1", 0]]},
         "stage": 2})},
     build_argv(), "empty tree presentation"),
    ("plotted-tree-depth-zero", {"c.json": '{"construction": "plotted-tree", "depth": 0}'},
     build_argv(), "depth must be at least 1"),
    ("search-bound-below-comb-index", {"c.json": json.dumps(
        {**json.loads(family_with_triple(0, 0, 1)), "search_bound": 0, "stage": 3})},
     build_argv(), "config field 'search_bound': must be at least 3, the last comb index"),
    # distinct elements, but the new one is one above the largest earlier
    # element below it, so the destination max stands still
    ("track-max-does-not-shrink", {"c.json": json.dumps({**Q_CONFIG, "B": [[1, 1], [2, 2]]})},
     build_argv(), "destination max must strictly shrink inside a frame"),
    ("prune-stage-not-an-integer",
     {"c.json": '{"construction": "plotted-tree", "P": {"prune": [["1", 0.5]]}}'}, build_argv(),
     "natural number"),
    ("prune-string-not-a-string",
     {"c.json": '{"construction": "plotted-tree", "P": {"prune": [[["1"], 0]]}, "stage": 3}'},
     build_argv(), "not a binary string"),
    ("prune-string-not-a-string-at-stage-0",
     {"c.json": '{"construction": "plotted-tree", "P": {"prune": [[["1"], 0]]}, "stage": 0}'},
     build_argv(), "not a binary string"),
    ("render-scene-without-frame", {"s.json": NO_FRAME},
     ["render", "--scene", "s.json", "--out", "out.json"], "'frame'"),
    ("hausdorff-scene-without-frame", {"s.json": NO_FRAME},
     HAUSDORFF_ARGV, "'frame'"),
    ("render-zero-width-frame", {"s.json": scene_with_frame("1", "0", "1", "1")}, render_argv(),
     "x0 < x1"),
    ("render-zero-height-frame", {"s.json": scene_with_frame("0", "1/2", "1", "1/2")},
     render_argv(), "y0 < y1"),
    ("render-inverted-frame", {"s.json": scene_with_frame("1", "1", "0", "0")}, render_argv(),
     "x0 < x1"),
    ("render-negative-width", {"s.json": UNIT_SCENE}, render_argv("--width", "-5"), "--width"),
    ("render-zero-width", {"s.json": UNIT_SCENE}, render_argv("--width", "0"), "--width"),
    ("render-zero-denominator-frame", {"s.json": scene_with_frame("1/0", "0", "1", "1")},
     render_argv(), "zero denominator"),
    ("hausdorff-zero-denominator-vertex", {"s.json": ZERO_DENOMINATOR_VERTEX},
     HAUSDORFF_ARGV, "zero denominator"),
    ("hausdorff-bool-vertex", {"s.json": scene_with_vertex(True)}, HAUSDORFF_ARGV,
     "not a rational"),
    ("hausdorff-decimal-vertex", {"s.json": scene_with_vertex("0.5")}, HAUSDORFF_ARGV,
     "not a rational"),
    ("hausdorff-exponent-vertex", {"s.json": scene_with_vertex("1e999")}, HAUSDORFF_ARGV,
     "not a rational"),
    ("hausdorff-scene-b-vertex-not-a-pair",
     {"a.json": scene_with_vertex("1/2"), "b.json": scene_with_verts(["1"])}, HAUSDORFF_B_ARGV,
     "malformed scene TMP/b.json: ValueError not enough values to unpack"),
    ("hausdorff-scene-b-vertex-not-rational",
     {"a.json": scene_with_vertex("1/2"), "b.json": scene_with_vertex("a")}, HAUSDORFF_B_ARGV,
     "malformed scene TMP/b.json: ValueError not a rational 'p/q' string: 'a'"),
    ("hausdorff-scene-b-piece-outside-frame",
     {"a.json": scene_with_vertex("1/2"), "b.json": scene_with_vertex("2")}, HAUSDORFF_B_ARGV,
     "malformed scene TMP/b.json: ValueError piece outside frame"),
    ("hausdorff-scene-without-pieces", {"s.json": UNIT_SCENE}, HAUSDORFF_ARGV,
     "undefined distance to empty set"),
    # the checkers' refusals
    ("nesting-over-one-stage", {"c.json": (CONFIGS / "cantor-fan-q.json").read_text()},
     verify_argv("3:3"), "nesting check needs at least two stages"),
    ("render-stage-not-an-integer", {"s.json": HALF_STAGE}, render_argv(), "natural number"),
    ("hausdorff-negative-tol-exp", {"s.json": UNIT_SCENE}, [*HAUSDORFF_ARGV, "--tol-exp", "-1"],
     "--tol-exp"),
]


@pytest.mark.parametrize(
    "files,argv,fragment", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, files, argv, fragment):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment.replace("TMP/", f"{tmp_path}/") in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


class TestRender:
    def test_basic_dendrite_svg_counts(self, tmp_path):
        cfg = write_config(tmp_path, {"construction": "basic-dendrite", "stage": 4})
        scene = tmp_path / "scene.json"
        svg = tmp_path / "scene.svg"
        assert main(["build", "--config", str(cfg), "--out", str(scene)]) == 0
        assert main(["render", "--scene", str(scene), "--out", str(svg)]) == 0
        counts = count_elements(svg.read_text())
        assert counts["line"] == 6  # base + risings t = 0..4

    def test_render_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, Q_CONFIG)
        scene = tmp_path / "scene.json"
        main(["build", "--config", str(cfg), "--out", str(scene)])
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", "--scene", str(scene), "--out", str(s1)])
        main(["render", "--scene", str(scene), "--out", str(s2)])
        assert s1.read_bytes() == s2.read_bytes()


class TestHausdorffCommand:
    def test_identical_scenes_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"construction": "basic-dendrite", "stage": 2})
        scene = tmp_path / "scene.json"
        main(["build", "--config", str(cfg), "--out", str(scene)])
        code = main(
            ["hausdorff", "--scene-a", str(scene), "--scene-b", str(scene), "--tol-exp", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().split()
        assert out[0] == "0/1"

    def test_console_entry_point(self):
        proc = fresh_python("-m", "planarpi.cli", "--help")
        assert proc.returncode == 0
        assert "build" in proc.stdout


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """`python args` in a new interpreter that imports the `planarpi` under test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# runs main(argv) and prints, as its last stdout line, the exit code and
# every module loaded
LOADED_MODULES = """
import json, sys
from planarpi.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def verify_step(name: str, checks: str) -> list[str]:
    return ["verify", "--config", str(CONFIGS / f"{name}.json"), "--checks", checks,
            "--stage-range", "0:3", "--out", "TMP/report.json"]


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (
            ["hausdorff", "--scene-a", "TMP/q2.json", "--scene-b", "TMP/q3.json"],
            ("planarpi.continua", "planarpi.verify", "planarpi.cesets", "planarpi.cantor", "hashlib"),
        ),
        (
            verify_step("dendrite-d", "connectivity,cut-dichotomy"),
            ("planarpi.continua.fanq", "planarpi.continua.trees", "planarpi.cantor"),
        ),
        (
            verify_step("dendroid-k", "connectivity,cut-dichotomy"),
            ("planarpi.continua.fanq", "planarpi.continua.trees", "planarpi.cantor"),
        ),
        (
            verify_step("cantor-fan-q", "nesting,connectivity,touch-chain"),
            ("planarpi.cesets", "planarpi.balls", "planarpi.continua.trees"),
        ),
    ],
    ids=["hausdorff", "dendrite-d-verify", "dendroid-k-verify", "fan-verify"],
)
def test_command_loads_only_its_modules(tmp_path, argv, unloaded):
    # a fresh process compiles every module it imports, so a step should
    # import only what its command and construction run
    for stage in (2, 3):
        out = tmp_path / f"q{stage}.json"
        assert main(["build", "--config", str(CONFIGS / "cantor-fan-q.json"),
                     "--stage", str(stage), "--out", str(out)]) == 0
    argv = [a.replace("TMP/", f"{tmp_path}/") for a in argv]
    proc = fresh_python("-c", LOADED_MODULES, *argv)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    loaded = [m for m in modules if m.startswith(unloaded)]
    assert loaded == []


@pytest.mark.parametrize(
    "module_name,attr,name,checks",
    [
        ("planarpi.continua.trees", "build_dendrite_h", "dendrite-h", "cut-dichotomy"),
        ("planarpi.continua.dendrite", "build_dendrite_d", "dendrite-d", "cut-dichotomy"),
        ("planarpi.continua.comb", "build_dendroid_k", "dendroid-k", "cut-dichotomy"),
        ("planarpi.continua.fanq", "q_snapshots", "cantor-fan-q", "nesting"),
        ("planarpi.continua.fanq", "check_touch", "cantor-fan-q", "touch-chain"),
        ("planarpi.verify", "check_connectivity", "dendrite-h", "connectivity"),
    ],
)
def test_cli_reaches_function_replaced_on_its_module(
    tmp_path, monkeypatch, module_name, attr, name, checks
):
    # a timer installed from outside (perfbench/tracer.py) replaces the
    # function on the module that defines it; the CLI must call the wrapper
    argv = verify_step(name, checks)
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert main([a.replace("TMP/report.json", str(before)) for a in argv]) == 0
    module = importlib.import_module(module_name)
    real, calls = getattr(module, attr), []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    assert main([a.replace("TMP/report.json", str(after)) for a in argv]) == 0
    assert calls
    assert after.read_bytes() == before.read_bytes()


def test_one_natural_number_rule():
    # the rule lives in the package, so that commands which read no tree
    # need not load `planarpi.cantor`; the old name still resolves
    import planarpi.cantor
    import planarpi.cesets

    assert planarpi.cantor.check_natural is planarpi.check_natural
    assert planarpi.cesets.check_natural is planarpi.check_natural


def test_readme_table_matches_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [line.split("|")[1:-1] for line in readme.splitlines() if line.startswith("| `")]
    table = {
        cells[0].strip(" `"): tuple(c for c, cell in zip(CHECK_NAMES, cells[1:]) if cell.strip())
        for cells in rows
    }
    registry = {
        name: tuple(sorted(c.checks, key=CHECK_NAMES.index)) for name, c in CONSTRUCTIONS.items()
    }
    assert table == registry
