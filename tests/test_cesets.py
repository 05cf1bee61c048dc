"""Scripted enumerations, e-states, and the limit function.

Every set here is a finite script standing in for a c.e. set; the tests
exercise the finite-stage combinatorics only.
"""

import random

import pytest

from planarpi.cesets import (
    EnumerationScript,
    FamilyMember,
    SequenceFamily,
    e_state,
    limit_f,
    stage_function,
)

from oracles import brute_force_limit_f


def tail_family(bound: int, stage: int = 0, names=("V0",)) -> SequenceFamily:
    """Members realizing the full normalized tails (V)_n = {x >= n}."""
    members = []
    for name in names:
        triples = [
            (n, stage, x) for n in range(bound + 1) for x in range(n, bound + 1)
        ]
        members.append(FamilyMember(name, tuple(triples)))
    return SequenceFamily(members, normalized=True)


class TestEnumerationScript:
    def test_stage_function_earliest(self):
        script = EnumerationScript([(1, 1), (3, 3)])
        assert stage_function(script, 3) == 3
        assert stage_function(script, 1) == 1

    def test_never_enumerated(self):
        script = EnumerationScript([(1, 1)])
        assert stage_function(script, 7) is None

    def test_single_entry_replay(self):
        script = EnumerationScript([(5, 2)])
        assert stage_function(script, 2) == 5

    def test_invariants(self):
        with pytest.raises(ValueError):
            EnumerationScript([(1, 2)])  # element above stage
        with pytest.raises(ValueError):
            EnumerationScript([(1, 1), (1, 0)])  # two elements in one stage


class TestEState:
    def test_stage_zero_empty(self):
        fam = tail_family(10, stage=3)
        assert e_state(fam, 0, 4, 0) == (0,)

    def test_tail_membership(self):
        fam = tail_family(10)
        # single member: y=4 belongs to (V0)_4, y=3 fails the min bound
        assert e_state(fam, 4, 4, 5) == (1, 0, 0, 0, 0)
        assert e_state(fam, 4, 3, 5) == (0, 0, 0, 0, 0)

    def test_monotone_in_stage(self):
        fam = SequenceFamily(
            [FamilyMember("V0", ((0, 2, 5), (0, 4, 6))), FamilyMember("V1", ((0, 3, 5),))]
        )
        for y in (5, 6):
            states = [e_state(fam, 1, y, s) for s in range(6)]
            for a, b in zip(states, states[1:]):
                assert all(x <= yv for x, yv in zip(a, b))

    def test_missing_members_read_empty(self):
        fam = tail_family(5)
        assert e_state(fam, 3, 3, 5) == (1, 0, 0, 0)

    def test_limit_f_bound_check(self):
        fam = tail_family(5)
        with pytest.raises(ValueError):
            limit_f(fam, 3, 0, 1)


class TestLimitF:
    def test_stage_zero_returns_zero(self):
        fam = tail_family(10, stage=2)
        assert limit_f(fam, 0, 0, 10) == 0

    def test_full_tails_pick_e(self):
        fam = tail_family(20)
        # least y in (V0)_3 = {x >= 3} is 3
        assert limit_f(fam, 3, 5, 20) == 3

    def test_two_member_preference(self):
        # V1 catches y=5 early everywhere, V0 catches y=9 later everywhere;
        # the state (1,1) of 9 beats (0,1) of 5 once V1 also includes 9
        v0 = FamilyMember("V0", tuple((n, 6, 9) for n in range(12)))
        v1 = FamilyMember(
            "V1", tuple((n, 1, 5) for n in range(12)) + tuple((n, 1, 9) for n in range(12))
        )
        fam = SequenceFamily([v0, v1])
        assert limit_f(fam, 1, 2, 12) == 5  # only V1 has fired: (0,1) states tie, least y
        assert limit_f(fam, 1, 8, 12) == 9  # (1,1) beats (0,1)
        for e in range(2):
            for stage in (0, 2, 8):
                assert limit_f(fam, e, stage, 12) == brute_force_limit_f(
                    fam, e, stage, 12
                )

    def test_matches_oracle_random(self):
        rng = random.Random(4)
        for _ in range(10):
            members = []
            for i in range(rng.randint(1, 3)):
                triples = tuple(
                    (rng.randint(0, 6), rng.randint(0, 9), rng.randint(0, 12))
                    for _ in range(rng.randint(0, 18))
                )
                members.append(FamilyMember(f"V{i}", triples))
            fam = SequenceFamily(members)
            for e in range(len(members)):
                for stage in range(0, 10, 3):
                    assert limit_f(fam, e, stage, 12) == brute_force_limit_f(
                        fam, e, stage, 12
                    )

    def test_stabilizes_on_finite_scripts(self):
        fam = tail_family(15, stage=4)
        final = max(s for m in fam.members for (_, s, _) in m.triples)
        for e in range(3):
            late = [limit_f(fam, e, s, 15) for s in range(final + 1, final + 6)]
            assert len(set(late)) == 1

    def test_almost_all_membership(self):
        # family realizing a single non-increasing normalized sequence:
        # after stabilization f(n) lands in U_n from some threshold on
        fam = tail_family(30, stage=1)
        stabilized = [limit_f(fam, n, 10, 30) for n in range(12)]
        threshold = next(
            n for n in range(12) if all(stabilized[m] >= m for m in range(n, 12))
        )
        assert threshold <= 2
        for n in range(threshold, 12):
            assert stabilized[n] >= n  # f(n) in U_n = {x >= n}

    def test_domination(self):
        # U^g_n = {y >= g(n)}: stabilized f dominates the scripted total g
        g = [0, 2, 4, 7, 8, 9, 11, 13]
        triples = tuple(
            (n, 0, x) for n in range(len(g)) for x in range(g[n], 20)
        )
        fam = SequenceFamily([FamilyMember("Vg", triples)])
        for n in range(len(g)):
            assert limit_f(fam, n, 5, 20) >= g[n]
