"""Deterministic stand-ins for c.e. sets and the e-state combinatorics.

Every "incomputable" object here is a finite script replayed verbatim; the
tests exercise the finite-stage combinatorics the limit arguments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import check_natural


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
        return EnumerationScript([(s, n) for s, n in rows])


def stage_function(script: EnumerationScript, n: int) -> Optional[int]:
    """st(n): least stage at which n appears, or None."""
    return next((s for s, m in script.entries if m == n), None)


@dataclass(frozen=True)
class FamilyMember:
    name: str
    triples: tuple[tuple[int, int, int], ...]  # (component n, stage, element)

    def __post_init__(self):
        for triple in self.triples:
            for value, what in zip(triple, ("component", "stage", "element")):
                check_natural(value, f"{self.name}: {what}")

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        """(component, element) -> earliest enumeration stage."""
        index: dict[tuple[int, int], int] = {}
        for (m, s, x) in self.triples:
            key = (m, x)
            if key not in index or s < index[key]:
                index[key] = s
        return index

    def contains_at(self, n: int, x: int, stage: int) -> bool:
        s = self._index.get((n, x))
        return s is not None and s <= stage


@dataclass(frozen=True)
class SequenceFamily:
    """Finite list of scripted uniformly-enumerable sequences V_i.  Families
    compare and hash by value, so equal ones share cached work."""

    members: Sequence[FamilyMember]
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "normalized", bool(self.normalized))
        if self.normalized:
            for mem in self.members:
                for (n, _, x) in mem.triples:
                    if x < n:
                        raise ValueError(
                            f"{mem.name}: element {x} below component index {n}"
                        )

    @staticmethod
    def from_json(rows, normalized: bool = False) -> "SequenceFamily":
        members = [
            FamilyMember(r["name"], tuple((n, s, x) for n, s, x in r["triples"]))
            for r in rows
        ]
        return SequenceFamily(members, normalized=normalized)


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
