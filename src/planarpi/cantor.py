"""Binary strings, co-c.e. trees as pruning schedules, and fat Cantor levels.

Trees are presented the way a co-c.e. set is enumerated: a finite schedule
of pruned strings.  The stage-s truncation removes extensions of strings
pruned at stages < s and is closed under "both children gone => parent
gone", so it never has dead ends.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from typing import Iterable

from . import Record, check_natural

BITS = ("0", "1")


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
    """

    def __init__(self, prune: Iterable[tuple[str, int]] = ()):
        entries = []
        for sigma, stage in prune:
            entries.append((check_bits(sigma), check_natural(stage, "prune stage")))
        self.prune = tuple(sorted(entries, key=lambda e: (e[1], e[0])))
        self.max_prune_len = max((len(s) for s, _ in self.prune), default=0)
        self.final_stage = max((u + 1 for _, u in self.prune), default=0)
        self._removed_sets: dict[int, frozenset[str]] = {}  # owned by _removed
        self._fat_cache: dict[int, FatCantorLevel] = {}  # owned by fat_level

    def _removed(self, stage: int) -> frozenset[str]:
        """The closed set of removed strings at `stage` (see the class docstring)."""
        stage = min(stage, self.final_stage)
        if stage not in self._removed_sets:
            removed = {sigma for sigma, u in self.prune if u < stage}
            work = list(removed)
            while work:  # a parent joins when the later of its children is popped
                parent = work.pop()[:-1]
                if parent not in removed and {parent + "0", parent + "1"} <= removed:
                    removed.add(parent)
                    work.append(parent)
            self._removed_sets[stage] = frozenset(removed)
        return self._removed_sets[stage]

    def survives(self, sigma: str, stage: int) -> bool:
        prefixes = (sigma[:k] for k in range(len(check_bits(sigma)) + 1))
        return self._removed(stage).isdisjoint(prefixes)

    def level(self, length: int, stage: int) -> list[str]:
        """Surviving strings of the given length, lexicographically sorted."""
        removed = self._removed(stage)
        work = [] if "" in removed else [""]
        for _ in range(length):
            work = [sigma + b for sigma in work for b in BITS if sigma + b not in removed]
        return work

    def is_empty(self, stage: int) -> bool:
        return "" in self._removed(stage)

    @staticmethod
    def from_json(doc: dict) -> "TreePresentation":
        return TreePresentation([(s, u) for s, u in doc.get("prune", [])])


def full_tree() -> TreePresentation:
    return TreePresentation()


def single_path_tree(path_bit: str = "0", depth: int = 16, stage: int = 0) -> TreePresentation:
    """Tree whose only surviving branch repeats path_bit, pruned by `stage`."""
    other = "1" if path_bit == "0" else "0"
    entries = [(path_bit * k + other, stage) for k in range(depth)]
    return TreePresentation(entries)


# -- the middle-thirds coding -------------------------------------------------


def _ternary_code(sigma: str) -> int:
    """The bits read as ternary digits 0 and 2, in one integer."""
    return int("0" + sigma.replace("1", "2"), 3)


def cantor_coord(sigma: str) -> Fraction:
    """Left endpoint (un-padded) of sigma's middle-thirds level interval."""
    check_bits(sigma)
    # 1/3 + sum of 2 * 3^-(i+2) over the 1-bits
    k = len(sigma)
    return Fraction(3**k + _ternary_code(sigma), 3 ** (k + 1))


def pad_eps(s: int) -> Fraction:
    return Fraction(1, 3 ** (s + 2))


class FatCantorLevel(Record):
    """Stage-s fat approximation: one padded interval per surviving string."""

    __slots__ = _fields = ("stage", "intervals")

    def __init__(self, stage: int, intervals: tuple[tuple[Fraction, Fraction], ...]):
        self.stage = stage
        self.intervals = intervals

    @property
    def l_minus(self) -> Fraction:
        return self.intervals[0][0]

    @property
    def r_plus(self) -> Fraction:
        return self.intervals[-1][1]

    @property
    def l_star(self) -> Fraction:
        """l_minus + pad_eps(stage) / 2, built from integers.

        The first left end is (n0 - 1) / 3^(s+2) with n0 = 3(3^s + c) (see
        `fat_level`), so this is (2 n0 - 1) / (2 * 3^(s+2)).  Its numerator
        is odd, and 2 mod 3 because 3 divides n0, so it is in lowest terms.
        """
        lo = self.intervals[0][0]
        return _coprime(2 * lo._numerator + 1, 2 * lo._denominator)

    @property
    def l(self) -> Fraction:
        return self.l_minus + pad_eps(self.stage)

    @property
    def r_star(self) -> Fraction:
        """r_plus - pad_eps(stage) / 2, built from integers.

        The last right end is (nk + 4) / 3^(s+2), so this is
        (2 nk + 7) / (2 * 3^(s+2)).  Its numerator is odd, and 1 mod 3
        because 3 divides nk, so it is in lowest terms.
        """
        hi = self.intervals[-1][1]
        return _coprime(2 * hi._numerator - 1, 2 * hi._denominator)

    @property
    def r(self) -> Fraction:
        return self.r_plus - pad_eps(self.stage)

    def min_point(self) -> Fraction:
        return self.l_minus

    def max_point(self) -> Fraction:
        return self.r_plus


def _coprime(n: int, d: int) -> Fraction:
    """Fraction(n, d) without its gcd: only for d > 0 and gcd(n, d) == 1."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


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
    alone decides whether the level is empty.  The level is grown in one
    pass over level s - 1's left ends, which makes each surviving child's
    two ends from integers.

    The outermost call that grows a level pauses the cyclic garbage
    collector from after its cache lookup until the level is made, and
    restores the caller's state on every exit, so a collector the caller
    turned off stays off.  A collection during the pause could free
    nothing: growth makes only ints, strings, `Fraction`s holding ints,
    tuples, lists and sets of these, the tree's cached removed sets and one
    `FatCantorLevel` per stage, and none of them can be in a reference
    cycle.  They stay tracked, so later collections see them as usual; the
    pause only spares re-traversing the new intervals as they age through
    the generations.  The pause is process-wide; planarpi starts no threads.
    """
    check_natural(s, "fat level stage")
    cache = tree._fat_cache
    if s in cache:
        return cache[s]
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        level = FatCantorLevel(stage=s, intervals=_grow(tree, s))
    finally:
        if paused:
            gc.enable()
    cache[s] = level
    return level


def _grow(tree: TreePresentation, s: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The intervals of `fat_level(tree, s)`, grown as its docstring says."""
    depth = min(s, tree.max_prune_len)
    if s > max(tree.final_stage, tree.max_prune_len):  # settled
        alive, empty = None, tree.is_empty(s)
    else:
        alive = {_ternary_code(sigma) for sigma in tree.level(depth, s)}
        empty = not alive
    if empty:  # before the recursion, so that the error names stage s
        raise ValueError(f"tree level {s} is empty")
    # with n/3^(s+2) = cantor_coord(sigma), the interval is [n - 1, n + 4]
    # over 3^(s+2); both ends are prime to 3, so already in lowest terms
    if s == 0:
        return ((_coprime(2, 9), _coprime(7, 9)),)  # the root: n = 3
    # a level-(s-1) string with code c has left end p / 3^(s+1),
    # p = 3(3^(s-1) + c) - 1, so its children's codes 3c and 3c + 2 are
    # p + 1 - 3^s and p + 3 - 3^s, and their left ends over 3^(s+2) are
    # 3p + 2 and 3p + 8; each end is made as `_coprime` makes it
    base, den, new, F = 3**s, 3 ** (s + 2), object.__new__, Fraction
    intervals = []
    put = intervals.append
    parents = fat_level(tree, s - 1).intervals
    if depth < s:
        # both children share the parent's length-depth prefix
        if alive is None:
            kept = parents
        else:
            drop = 3 ** (s - depth)
            kept = [iv for iv in parents if (iv[0]._numerator + 1 - base) // drop in alive]
        for lo, _ in kept:
            n = 3 * lo._numerator + 2
            a = new(F)
            a._numerator, a._denominator = n, den
            b = new(F)
            b._numerator, b._denominator = n + 5, den
            put((a, b))
            a = new(F)
            a._numerator, a._denominator = n + 6, den
            b = new(F)
            b._numerator, b._denominator = n + 11, den
            put((a, b))
    else:
        for lo, _ in parents:
            p = lo._numerator
            c, n = p + 1 - base, 3 * p + 2
            if c in alive:
                a = new(F)
                a._numerator, a._denominator = n, den
                b = new(F)
                b._numerator, b._denominator = n + 5, den
                put((a, b))
            if c + 2 in alive:
                a = new(F)
                a._numerator, a._denominator = n + 6, den
                b = new(F)
                b._numerator, b._denominator = n + 11, den
                put((a, b))
    return tuple(intervals)


def symmetrize(tree: TreePresentation) -> TreePresentation:
    """Union with the bit-flipped tree: fat levels become x -> 1-x symmetric.

    A string is removed from both trees at stage s iff it extends a member a
    of the stage-s removed set and the mirror of a member b, that is iff a
    and flip(b) are comparable and it extends the longer of the two.  Each
    such string is pruned from the first stage at which it appears.
    """
    first: dict[str, int] = {}
    for s in range(1, tree.final_stage + 1):
        removed = tree._removed(s)
        mirrors = [flip_bits(b) for b in removed]
        for a in removed:
            for b in mirrors:
                short, long = sorted((a, b), key=len)
                if long.startswith(short):
                    first.setdefault(long, s - 1)
    return TreePresentation(first.items())


def leftmost_path(tree: TreePresentation, stage: int, depth: int) -> str:
    """Lexicographically least surviving string of the given length.  A
    survivor has a surviving child, since the removed set is closed."""
    removed = tree._removed(stage)
    if "" in removed:
        raise ValueError("empty tree has no leftmost path")
    sigma = ""
    for _ in range(depth):
        sigma += "0" if sigma + "0" not in removed else "1"
    return sigma
