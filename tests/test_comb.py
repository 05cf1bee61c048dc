"""The comb tower driven by the scripted limit function."""

import json
from fractions import Fraction as F
from pathlib import Path

import planarpi.continua.comb as comb
from planarpi.cesets import FamilyMember, SequenceFamily
from planarpi.cli import main
from planarpi.continua.comb import (
    build_dendroid_k,
    comb_center,
    comb_cut_box,
    comb_width,
    rising_scale,
)
from planarpi.geom import connectivity_components, subtract_poly


def figure_family(bound: int = 10) -> SequenceFamily:
    """Scripted family realizing f_0 = f_1 = 0 and f_s = 2 from stage 2 on."""
    triples = tuple((n, 2, 2) for n in range(bound + 1))
    return SequenceFamily([FamilyMember("V0", triples)])


class TestWidths:
    def test_center_of_first_rising(self):
        assert comb_center(0, 0) == F(1)

    def test_figure_scales(self):
        fam = figure_family()
        for t in range(3):
            assert rising_scale(fam, t, 0, 8, 10) == 1
            assert rising_scale(fam, t, 1, 8, 10) == 0
            assert rising_scale(fam, t, 2, 8, 10) == F(1, 4)

    def test_figure_width_value(self):
        fam = figure_family()
        assert comb_width(fam, 0, 2, 8, 10) == F(1, 4) * F(1, 1 << 5)


class TestBuildK:
    def test_connected(self):
        fam = figure_family()
        for stage in range(4):
            region = build_dendroid_k(stage, fam)
            assert len(connectivity_components(region)) == 1, stage

    def test_cut_dichotomy_small(self):
        fam = figure_family()
        stage = 3
        region = build_dendroid_k(stage, fam)
        for t in range(stage + 1):
            for u in range(stage + 1):
                cut = subtract_poly(region, comb_cut_box(t, u))
                expected = 2 if comb_width(fam, t, u, stage, 10) > 0 else 1
                observed = len(connectivity_components(cut))
                assert observed == expected, (t, u)

    def test_nesting_of_base_truncation(self):
        # deeper stages only extend structure; the connecting stub shrinks
        fam = figure_family()
        r2 = build_dendroid_k(2, fam)
        r3 = build_dendroid_k(3, fam)
        stub2 = min(p.bbox()[0] for p in r2.pieces)
        stub3 = min(p.bbox()[0] for p in r3.pieces)
        assert stub2 == stub3 == -1


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestFirstChoicesCache:
    def test_families_compare_by_value(self):
        rows = json.loads((CONFIGS / "dendroid-k.json").read_text())["families"]
        a, b = SequenceFamily.from_json(rows), SequenceFamily.from_json(rows)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != SequenceFamily(a.members[:-1])

    def test_build_and_probes_share_one_pass(self, tmp_path, monkeypatch):
        # the CLI parses `families` once, and the build and the probes share
        # that family's first choices, so stage 8 costs one limit_f call per
        # (argument t, stage s <= 8)
        calls = count_limit_f(monkeypatch)
        argv = ["verify", "--config", str(CONFIGS / "dendroid-k.json"),
                "--checks", "cut-dichotomy", "--stage-range", "0:8",
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert len(calls) == len(set(calls)) == 81

    def test_equal_families_keep_separate_memos(self, monkeypatch):
        calls = count_limit_f(monkeypatch)
        a, b = figure_family(), figure_family()
        assert a == b
        assert rising_scale(a, 1, 2, 4, 10) == rising_scale(b, 1, 2, 4, 10) == F(1, 4)
        assert len(calls) == 2 * 5  # stages 0..4, for each family
        assert a._first_choices is not b._first_choices

    def test_build_and_widths_share_one_family_memo(self, monkeypatch):
        calls = count_limit_f(monkeypatch)
        fam, stage = figure_family(), 3
        build_dendroid_k(stage, fam)
        for t in range(stage + 1):
            for u in range(stage + 1):
                comb_width(fam, t, u, stage, None)  # the builder's default bound
        assert len(calls) == len(set(calls)) == (stage + 1) ** 2  # once per (t, s)


def count_limit_f(monkeypatch) -> list:
    """The argument tuples of every `limit_f` call that comb makes from now on."""
    calls = []
    real = comb.limit_f

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(comb, "limit_f", counting)
    return calls
