"""Binary strings, co-c.e. trees as pruning schedules, and fat Cantor levels.

Trees are presented the way a co-c.e. set is enumerated: a finite schedule
of pruned strings.  The stage-s truncation removes extensions of strings
pruned at stages < s and is closed under "both children gone => parent
gone", so it never has dead ends.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import Record, check_natural

def check_bits(sigma: str) -> str:
    if not isinstance(sigma, str) or sigma.strip("01"):
        raise ValueError(f"not a binary string: {sigma!r}")
    return sigma


def flip_bits(sigma: str) -> str:
    return "".join("1" if c == "0" else "0" for c in sigma)


def all_strings(length: int) -> list[str]:
    return [format(i, f"0{length}b") if length else "" for i in range(1 << length)]


class TreePresentation:
    """Co-c.e. subtree of the full binary tree, given by a pruning schedule.

    An entry (sigma, u) removes all extensions of sigma from truncations at
    stages strictly greater than u.  The stage-s truncation is read from one
    set: the strings pruned before stage s, closed under "both children in
    the set => parent in the set".  A string is removed iff one of its
    prefixes is in the set.  No member is longer than `max_prune_len`, and
    the set changes only at the stages u + 1, so every stage from
    `final_stage` on shares one set.

    The set holds each string sigma as its key 3^|sigma| + code(sigma) (see
    `_key`), so survival is decided on ints: the root is 1, the children of
    k are 3k and 3k + 2, and the length-d prefix of a length-n key is
    k // 3^(n - d).  Keys ascend in the lexicographic order of the strings
    of one length.
    """

    def __init__(self, prune: Iterable[tuple[str, int]] = ()):
        entries = []
        for sigma, stage in prune:
            entries.append((check_bits(sigma), check_natural(stage, "prune stage")))
        self.prune = tuple(sorted(entries, key=lambda e: (e[1], e[0])))
        self.max_prune_len = max((len(s) for s, _ in self.prune), default=0)
        self.final_stage = max((u + 1 for _, u in self.prune), default=0)
        self._removed_sets: dict[int, frozenset[int]] = {}  # owned by _removed
        self._fat_cache: dict[int, FatCantorLevel] = {}  # owned by fat_level

    def _removed(self, stage: int) -> frozenset[int]:
        """The closed set of removed keys at `stage` (see the class docstring)."""
        stage = min(stage, self.final_stage)
        if stage not in self._removed_sets:
            removed = {_key(sigma) for sigma, u in self.prune if u < stage}
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

    def _level_keys(self, length: int, stage: int) -> list[int]:
        """Keys of the surviving strings of the given length, ascending."""
        removed = self._removed(stage)
        work = [] if 1 in removed else [1]
        for _ in range(length):
            work = [c for k in work for c in (3 * k, 3 * k + 2) if c not in removed]
        return work

    def level(self, length: int, stage: int) -> list[str]:
        """Surviving strings of the given length, lexicographically sorted."""
        removed = self._removed(stage)
        work = [] if 1 in removed else [("", 1)]
        for _ in range(length):
            work = [
                (sigma + b, c)
                for sigma, k in work
                for b, c in (("0", 3 * k), ("1", 3 * k + 2))
                if c not in removed
            ]
        return [sigma for sigma, _ in work]

    def is_empty(self, stage: int) -> bool:
        return 1 in self._removed(stage)

    @staticmethod
    def from_json(doc: dict) -> "TreePresentation":
        if not isinstance(doc, dict):
            raise ValueError("must be a JSON object with a 'prune' list")
        return TreePresentation([(s, u) for s, u in doc.get("prune", [])])


def full_tree() -> TreePresentation:
    return TreePresentation()


# -- the middle-thirds coding -------------------------------------------------


def _ternary_code(sigma: str) -> int:
    """The bits read as ternary digits 0 and 2, in one integer."""
    return int("0" + sigma.replace("1", "2"), 3)


def _key(sigma: str) -> int:
    """3^|sigma| + `_ternary_code(sigma)`: the code under a leading digit 1."""
    return int("1" + sigma.replace("1", "2"), 3)


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
                try:
                    lo, hi = (Fraction(v) * den for v in iv)
                    ok = lo.denominator == 1 and hi == lo + 5
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    raise ValueError(f"{iv!r} is not a stage-{stage} fat interval")
                lefts.append(lo.numerator)
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

    Level s is grown from level s - 1: its strings are the children sigma0
    and sigma1 of level s - 1's strings that survive at stage s.  None is
    missed, because removal only grows with the stage and passes to every
    extension, so the parent of a stage-s survivor survives at stage s - 1.
    A child survives iff its prefix of length min(s, max_prune_len) does,
    because no member of the removed set is longer.  Past that horizon, both
    children of a parent share the prefix, so survival is tested once per
    parent.  From stage max(final_stage, max_prune_len) + 1 on, the tree has
    settled: the removed set is stage s - 1's and decides survival at the
    same length, so every parent survives.  There both children of every
    parent are grown with no survivor listed and no test, and `is_empty`
    alone decides whether the level is empty.
    """
    check_natural(s, "fat level stage")
    cache = tree._fat_cache
    if s not in cache:
        cache[s] = FatCantorLevel(s, lefts=_grow(tree, s))
    return cache[s]


def _grow(tree: TreePresentation, s: int) -> tuple[int, ...]:
    """The left numerators of `fat_level(tree, s)`, grown as its docstring says."""
    depth = min(s, tree.max_prune_len)
    if s > max(tree.final_stage, tree.max_prune_len):  # settled
        alive, empty = None, tree.is_empty(s)
    else:
        alive = set(tree._level_keys(depth, s))
        empty = not alive
    if empty:  # before the recursion, so that the error names stage s
        raise ValueError(f"tree level {s} is empty")
    # sigma's left numerator over 3^(s+2) is 3k - 1, k = `_key(sigma)`
    if s == 0:
        return (2,)  # the root: k = 1
    # so a parent with left numerator p has the children keys p + 1 and
    # p + 3, and their left numerators n are 3p + 2 and 3p + 8: a child's
    # key is (n + 1) // 3
    parents = fat_level(tree, s - 1).lefts
    if depth == s:
        return tuple(n for p in parents for n in (3 * p + 2, 3 * p + 8) if (n + 1) // 3 in alive)
    # both children share the parent's length-depth prefix
    if alive is not None:
        drop = 3 ** (s - depth)
        parents = [p for p in parents if (p + 1) // drop in alive]
    return tuple(n for p in parents for n in (3 * p + 2, 3 * p + 8))


def leftmost_path(tree: TreePresentation, stage: int, depth: int) -> str:
    """Lexicographically least surviving string of the given length.  A
    survivor has a surviving child, since the removed set is closed."""
    removed = tree._removed(stage)
    if 1 in removed:
        raise ValueError("empty tree has no leftmost path")
    sigma, key = "", 1
    for _ in range(depth):
        if 3 * key not in removed:
            sigma, key = sigma + "0", 3 * key
        else:
            sigma, key = sigma + "1", 3 * key + 2
    return sigma
