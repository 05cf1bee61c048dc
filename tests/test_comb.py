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
        member = FamilyMember("V0", ((0, 1, 3), (1, 2, 4)))
        assert SequenceFamily([member]) != SequenceFamily([member], normalized=True)

    def test_build_and_probes_share_one_pass(self, tmp_path, monkeypatch):
        # the CLI parses `families` once for the build and once for the
        # probes; the two equal families share the cached first choices, so
        # stage 8 costs one limit_f call per (argument t, stage s <= 8)
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        real = comb.limit_f
        monkeypatch.setattr(comb, "limit_f", counting)
        comb._first_choices.cache_clear()
        argv = ["verify", "--config", str(CONFIGS / "dendroid-k.json"),
                "--checks", "cut-dichotomy", "--stage-range", "0:8",
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        comb._first_choices.cache_clear()  # drop the entries made through the counter
        assert len(calls) == len(set(calls)) == 81
