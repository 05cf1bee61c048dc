"""Deterministic stand-ins for c.e. sets and the e-state combinatorics.

Every "incomputable" object here is a finite script replayed verbatim; the
tests exercise the finite-stage combinatorics the limit arguments rely on.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import Record, check_natural, check_rows


class EnumerationScript:
    """Stage-indexed enumeration of naturals: entries (stage, element), one
    element per stage, element <= stage."""

    def __init__(self, entries: Iterable[tuple[int, int]] = ()):
        rows = sorted((check_natural(s, "stage"), check_natural(n, "element")) for s, n in entries)
        stages = [s for s, _ in rows]
        if len(set(stages)) != len(stages):
            raise ValueError("at most one element per stage")
        for s, n in rows:
            if n > s:
                raise ValueError(f"element {n} enumerated before stage {n}")
        self.entries = tuple(rows)
        self.final_stage = max((s for s, _ in rows), default=0)

    def members_at(self, stage: int) -> set[int]:
        return {n for s, n in self.entries if s <= stage}

    @staticmethod
    def from_json(rows) -> "EnumerationScript":
        return EnumerationScript(check_rows(rows, "script", 2))


def stage_function(script: EnumerationScript, n: int) -> Optional[int]:
    """st(n): least stage at which n appears, or None."""
    return next((s for s, m in script.entries if m == n), None)


class FamilyMember(Record):
    _fields = ("name", "triples")
    __slots__ = (*_fields, "_index")

    def __init__(self, name: str, triples: tuple[tuple[int, int, int], ...]):
        index: dict[tuple[int, int], int] = {}  # (component, element) -> earliest stage
        for triple in triples:  # (component n, stage, element)
            for value, what in zip(triple, ("component", "stage", "element")):
                check_natural(value, f"{name}: {what}")
            m, s, x = triple
            if s < index.get((m, x), s + 1):
                index[m, x] = s
        self.name = name
        self.triples = triples
        self._index = index

    def contains_at(self, n: int, x: int, stage: int) -> bool:
        s = self._index.get((n, x))
        return s is not None and s <= stage


class SequenceFamily(Record):
    """Finite list of scripted uniformly-enumerable sequences V_i.  Families
    compare by value; each keeps its own memo of first choices."""

    _fields = ("members",)
    __slots__ = (*_fields, "_first_choices")

    def __init__(self, members: Sequence[FamilyMember]):
        self.members = tuple(members)
        self._first_choices: dict[tuple, dict[int, int]] = {}  # owned by comb._first_choices

    @staticmethod
    def from_json(rows) -> "SequenceFamily":
        if not isinstance(rows, list):
            raise ValueError(f"family must be a list of members, got {rows!r}")
        members = []
        for i, r in enumerate(rows):
            if not isinstance(r, dict):
                raise ValueError(f"family member {i} must be an object, got {r!r}")
            name = r["name"]
            triples = check_rows(r["triples"], f"{name}: triples", 3)
            members.append(FamilyMember(name, tuple(map(tuple, triples))))
        return SequenceFamily(members)


def e_state(fam: SequenceFamily, e: int, y: int, stage: int) -> tuple[int, ...]:
    """Membership pattern of y across the e-th components, as a bit vector
    with index 0 most significant.

    Indices beyond the scripted members read as empty sets, so a small family
    stands in for an effective enumeration padded with silence.
    """
    return tuple(
        1 if i < len(fam.members) and fam.members[i].contains_at(e, y, stage) else 0
        for i in range(e + 1)
    )


def limit_f(fam: SequenceFamily, e: int, stage: int, search_bound: int) -> int:
    """Least y <= search_bound whose e-state at `stage` is maximal."""
    if search_bound < e:
        raise ValueError("search bound must be at least e")
    best_y = 0
    best_state = e_state(fam, e, 0, stage)
    for y in range(1, search_bound + 1):
        st = e_state(fam, e, y, stage)
        if st > best_state:
            best_state = st
            best_y = y
    return best_y
