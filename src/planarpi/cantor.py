"""Co-c.e. trees as pruning schedules, tree nodes as keys, and fat Cantor levels.

Trees are presented the way a co-c.e. set is enumerated: a finite schedule
of pruned binary strings.  The stage-s truncation removes extensions of
strings pruned at stages < s and is closed under "both children gone =>
parent gone", so it never has dead ends.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import Record, check_natural, check_rows

def check_bits(sigma: str) -> str:
    if not isinstance(sigma, str) or sigma.strip("01"):
        raise ValueError(f"not a binary string: {sigma!r}")
    return sigma


class TreePresentation:
    """Co-c.e. subtree of the full binary tree, given by a pruning schedule.

    An entry (sigma, u) removes all extensions of sigma from truncations at
    stages strictly greater than u.  The stage-s truncation is read from one
    set: the strings pruned before stage s, closed under "both children in
    the set => parent in the set".  A string is removed iff one of its
    prefixes is in the set.  No member is longer than `max_prune_len`, and
    the set changes only at the stages u + 1, so every stage from
    `final_stage` on shares one set.

    A tree node is its key 3^|sigma| + code(sigma) (see `_key`), and the
    set holds keys, so survival is decided on ints: the root is 1, the
    children of k are 3k and 3k + 2, and the length-d prefix of a length-n
    key is k // 3^(n - d).  Keys ascend in the lexicographic order of the
    strings of one length.  Strings are read only at the input: the schedule
    is keyed once, here.
    """

    def __init__(self, prune: Iterable[tuple[str, int]] = ()):
        entries = []
        for sigma, stage in prune:
            entries.append((check_bits(sigma), check_natural(stage, "prune stage")))
        self.prune = tuple(sorted(entries, key=lambda e: (e[1], e[0])))
        self.max_prune_len = max((len(s) for s, _ in self.prune), default=0)
        self.final_stage = max((u + 1 for _, u in self.prune), default=0)
        self._prune_keys = tuple((_key(sigma), u) for sigma, u in self.prune)
        self._removed_sets: dict[int, frozenset[int]] = {}  # owned by _removed
        self._fat_cache: dict[int, FatCantorLevel] = {}  # owned by fat_level

    def _removed(self, stage: int) -> frozenset[int]:
        """The closed set of removed keys at `stage` (see the class docstring)."""
        stage = min(stage, self.final_stage)
        if stage not in self._removed_sets:
            removed = {key for key, u in self._prune_keys if u < stage}
            work = list(removed)
            while work:  # a parent joins when the later of its children is popped
                parent = work.pop() // 3
                if parent not in removed and 3 * parent in removed and 3 * parent + 2 in removed:
                    removed.add(parent)
                    work.append(parent)
            self._removed_sets[stage] = frozenset(removed)
        return self._removed_sets[stage]

    def survives(self, sigma: str, stage: int) -> bool:
        removed, key = self._removed(stage), _key(check_bits(sigma))
        while key and key not in removed:  # the prefixes, down to the root 1
            key //= 3
        return not key

    def level(self, length: int, stage: int) -> list[int]:
        """Keys of the surviving strings of the given length, ascending,
        which is the lexicographic order of the strings."""
        removed = self._removed(stage)
        work = [] if 1 in removed else [1]
        for _ in range(length):
            work = [c for k in work for c in (3 * k, 3 * k + 2) if c not in removed]
        return work

    def is_empty(self, stage: int) -> bool:
        return 1 in self._removed(stage)

    @staticmethod
    def from_json(doc: dict) -> "TreePresentation":
        if not isinstance(doc, dict):
            raise ValueError("must be a JSON object with a 'prune' list")
        return TreePresentation(check_rows(doc.get("prune", []), "prune", 2))


def full_tree() -> TreePresentation:
    return TreePresentation()


# -- the middle-thirds coding -------------------------------------------------


def _key(sigma: str) -> int:
    """3^|sigma| + code(sigma), code(sigma) the bits read as ternary digits
    0 and 2: the code under a leading digit 1.  It is read 4,000 digits at
    a time, below CPython's limit on converting a str to an int."""
    digits = "1" + sigma.replace("1", "2")
    key = int(digits[:4000], 3)
    for i in range(4000, len(digits), 4000):
        chunk = digits[i : i + 4000]
        key = key * 3 ** len(chunk) + int(chunk, 3)
    return key


def cantor_coord(sigma: str) -> Fraction:
    """Left endpoint (un-padded) of sigma's middle-thirds level interval."""
    # 1/3 + sum of 2 * 3^-(i+2) over the 1-bits
    return Fraction(_key(check_bits(sigma)), 3 ** (len(sigma) + 1))


def pad_eps(s: int) -> Fraction:
    return Fraction(1, 3 ** (s + 2))


class FatCantorLevel(Record):
    """Stage-s fat approximation: one padded interval per surviving string.

    The interval of a string is [n, n + 5] / 3^(s+2) for an integer n, its
    left numerator, so the level is held as `lefts`, those numerators in
    order.  It is built from `lefts`, or from `intervals`, a sequence of
    (left, right) pairs that must each be of that form.
    """

    __slots__ = ("stage", "lefts", "_intervals")
    _fields = ("stage", "lefts")

    def __init__(self, stage: int, intervals: Iterable[tuple[Fraction, Fraction]] | None = None,
                 *, lefts: tuple[int, ...] | None = None):
        if lefts is None:
            den = 3 ** (check_natural(stage, "fat level stage") + 2)
            lefts = []
            for iv in intervals:
                try:  # each end v times den, or None where that is no int
                    lo, hi = (f.numerator * (den // f.denominator) if den % f.denominator == 0
                              else None for f in map(Fraction, iv))
                    ok = lo is not None and hi == lo + 5
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    raise ValueError(f"{iv!r} is not a stage-{stage} fat interval")
                lefts.append(lo)
            lefts = tuple(lefts)
        self.stage, self.lefts, self._intervals = stage, lefts, None

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The intervals as `Fraction` pairs, made on the first read."""
        if self._intervals is None:
            den = 3 ** (self.stage + 2)
            self._intervals = tuple((Fraction(n, den), Fraction(n + 5, den)) for n in self.lefts)
        return self._intervals

    @property
    def l_minus(self) -> Fraction:
        return Fraction(self.lefts[0], 3 ** (self.stage + 2))

    @property
    def r_plus(self) -> Fraction:
        return Fraction(self.lefts[-1] + 5, 3 ** (self.stage + 2))

    @property
    def l_star(self) -> Fraction:
        """l_minus + pad_eps(stage) / 2."""
        return Fraction(2 * self.lefts[0] + 1, 2 * 3 ** (self.stage + 2))

    @property
    def r_star(self) -> Fraction:
        """r_plus - pad_eps(stage) / 2."""
        return Fraction(2 * self.lefts[-1] + 9, 2 * 3 ** (self.stage + 2))


def fat_level(tree: TreePresentation, s: int) -> FatCantorLevel:
    """Level-s intervals J(sigma) = [pi - eps, pi + 3^-(s+1) + eps], eps = 3^-(s+2).

    sigma's left numerator over 3^(s+2) is 3k - 1, k = `_key(sigma)`.  Up to
    the horizon, s <= max_prune_len, the level's strings are the keys of
    `tree.level(s, s)`.  Past it, they are the children of level s - 1's
    strings that survive at stage s: removal only grows with the stage and
    passes to every extension, so the parent of a stage-s survivor survives
    at stage s - 1.  Both children share their prefix of length
    max_prune_len, which alone decides survival, so it is tested once per
    parent.  From stage max(final_stage, max_prune_len) + 1 on, the tree has
    settled: stage s - 1's removed set is stage s's, so every parent
    survives, and `is_empty` alone decides whether the level is empty.
    """
    check_natural(s, "fat level stage")
    cache = tree._fat_cache
    if s not in cache:
        cache[s] = FatCantorLevel(s, lefts=_grow(tree, s))
    return cache[s]


def _grow(tree: TreePresentation, s: int) -> tuple[int, ...]:
    """The left numerators of `fat_level(tree, s)`, made as its docstring says."""
    depth = min(s, tree.max_prune_len)
    if s > max(tree.final_stage, tree.max_prune_len):  # settled
        keys, empty = None, tree.is_empty(s)
    else:
        keys = tree.level(depth, s)
        empty = not keys
    if empty:  # before the recursion, so that the error names stage s
        raise ValueError(f"tree level {s} is empty")
    if depth == s:
        return tuple([3 * k - 1 for k in keys])
    parents = fat_level(tree, s - 1).lefts
    if keys is not None:  # p's key is (p + 1) // 3, its length-depth prefix (p + 1) // drop
        alive, drop = set(keys), 3 ** (s - depth)
        parents = [p for p in parents if (p + 1) // drop in alive]
    low = [3 * p + 2 for p in parents]  # the left children; the right are 6 on
    lefts = low * 2
    lefts[::2], lefts[1::2] = low, [n + 6 for n in low]
    return tuple(lefts)


def leftmost_path(tree: TreePresentation, stage: int, depth: int) -> int:
    """Key of the lexicographically least surviving string of the given
    length.  A survivor has a surviving child: the removed set is closed."""
    removed = tree._removed(stage)
    if 1 in removed:
        raise ValueError("empty tree has no leftmost path")
    key = 1
    for _ in range(depth):
        key = 3 * key if 3 * key not in removed else 3 * key + 2
    return key
