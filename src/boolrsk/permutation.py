"""Permutations in one-line notation and the statistics this library lives on.

Everything is 1-based, matching the usual combinatorics conventions:
``Permutation((5, 1, 3, 4, 2))`` sends 1 to 5, 2 to 1, and so on.  Values are
immutable after construction and all operations are pure, so instances are
safe to share across threads.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from functools import lru_cache
from operator import sub

from ._value import Value
from .errors import _in_range, _integer
from .textio import format_letters

_PATTERN_3412 = (3, 4, 1, 2)


class Subsequence(Value):
    """Strictly increasing 1-based positions together with the values they carry."""

    _fields = ("positions", "values")

    def __init__(self, positions: tuple[int, ...], values: tuple[int, ...]) -> None:
        object.__setattr__(self, "positions", tuple(positions))
        object.__setattr__(self, "values", tuple(values))

    def __len__(self) -> int:
        return len(self.values)


class Permutation(Value):
    """A permutation of {1, ..., n} in one-line notation.

    >>> w = Permutation((5, 1, 3, 4, 2))
    >>> w(1), w(5)
    (5, 2)
    >>> w.length()
    6
    >>> str(w)
    '51342'
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        object.__setattr__(self, "entries", tuple(entries))
        n = len(self.entries)
        if n == 0:
            raise ValueError("one-line notation must not be empty")
        seen = [False] * (n + 1)
        for v in self.entries:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ValueError(f"value {v} out of range 1..{n}")
            if seen[v]:
                raise ValueError(f"duplicate value {v}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.entries)

    def __call__(self, i: int) -> int:
        """Apply the permutation to a position: w(i)."""
        _in_range((i,), 1, self.n, "position")
        return self.entries[i - 1]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.entries, start=1))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (w * u)(i) = w(u(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"cannot compose degrees {self.n} and {other.n}")
        # a composition of two permutations of one degree is a permutation
        return Permutation._trusted(tuple(self.entries[v - 1] for v in other.entries))

    def inverse(self) -> "Permutation":
        """The inverse permutation: u with u(w(i)) = i.

        >>> Permutation((3, 1, 4, 2)).inverse()
        Permutation(entries=(2, 4, 1, 3))
        """
        inv = [0] * self.n
        for i, v in enumerate(self.entries, start=1):
            inv[v - 1] = i
        # each position is written once, by the one entry that sends it there
        return Permutation._trusted(tuple(inv))

    def length(self) -> int:
        """Coxeter length: the number of inversions (i < j with w(i) > w(j)).

        Counted in O(n log n) with a Fenwick tree over the values already
        read: each entry adds the number of earlier entries larger than it.
        """
        n = self.n
        tree = [0] * (n + 1)
        inversions = 0
        for seen, v in enumerate(self.entries):
            k = v
            while k:
                inversions -= tree[k]
                k &= k - 1
            inversions += seen
            k = v
            while k <= n:
                tree[k] += 1
                k += k & -k
        return inversions

    def support(self) -> frozenset[int]:
        """The set of letters appearing in every reduced word for w.

        Computed by the prefix-maximum criterion: letter i is in the support
        exactly when max(w(1), ..., w(i)) > i, so no word enumeration is needed.

        >>> sorted(Permutation((5, 1, 3, 4, 2)).support())
        [1, 2, 3, 4]
        """
        out = []
        running = 0
        for i, v in enumerate(self.entries[:-1], start=1):
            if v > running:
                running = v
            if running > i:
                out.append(i)
        return frozenset(out)

    def _pattern_witness(self, pattern: tuple[int, ...]) -> tuple[int, ...] | None:
        """Lexicographically least positions forming the pattern, or None.

        A backtracking search on an explicit stack: ``chosen`` holds the
        positions matched to the first entries of the pattern, and the last
        iterator in ``candidates`` the positions still to try for the next one.
        """
        w = self.entries
        n, k = self.n, len(pattern)
        if k == 0:
            return ()
        chosen: list[int] = []
        candidates = [iter(range(n - k + 1))]
        while candidates:
            d = len(chosen)
            for p in candidates[-1]:
                v = w[p]
                if all((v > w[q]) == (pattern[d] > pattern[e]) for e, q in enumerate(chosen)):
                    break
            else:  # no position left for entry d: resume entry d - 1 after its match
                candidates.pop()
                if chosen:
                    chosen.pop()
                continue
            chosen.append(p)
            if d + 1 == k:
                return tuple(q + 1 for q in chosen)
            candidates.append(iter(range(p + 1, n - k + d + 2)))
        return None

    def depth(self) -> int:
        """The sum of w(i) - i over the positions with w(i) > i, half the total
        displacement.  It equals l(w) exactly when w avoids 321 (Petersen and
        Tenner, "The depth of a permutation", 2015).

        >>> Permutation((5, 1, 3, 4, 2)).depth()
        4
        """
        return sum(map(abs, map(sub, self.entries, range(1, self.n + 1)))) // 2

    def is_fully_commutative(self) -> bool:
        """True when w avoids 321; its reduced words then form one commutation
        class.  One pass: w avoids 321 exactly when the entries below the
        running maximum increase, as the 2 and the 1 of a 321 lie below it."""
        running = low = 0
        for v in self.entries:
            if v > running:
                running = v
            elif v < low:
                return False
            else:
                low = v
        return True

    def _boolean_support(self) -> frozenset[int] | None:
        """supp(w) when w avoids both 321 and 3412, else None.

        Every reduced word uses each support letter at least once, so w is
        boolean exactly when l(w) = |supp(w)|.  On a 321-avoider the depth
        equals l(w), so the test is depth(w) = |supp(w)| and w avoids 321:
        three passes, O(n), with no inversion count and no pattern search.
        """
        support = self.support()
        if self.depth() == len(support) and self.is_fully_commutative():
            return support
        return None

    def is_boolean(self) -> bool:
        """True when w avoids both 321 and 3412, i.e. some (hence every) reduced
        word for w uses all distinct letters; O(n), by ``_boolean_support``."""
        return self._boolean_support() is not None

    def boolean_witness(self) -> tuple[str, tuple[int, ...]] | None:
        """A (pattern, positions) pair showing why w is not boolean, or None.

        The positions are the lexicographically least occurrence of 321 if w
        contains 321, and of 3412 otherwise.  The 321 test comes first, so it
        runs once; a 321-avoider is then boolean exactly when its depth is
        |supp(w)|.  The least 321 is found in O(n) by ``_least_321``; only a
        321-avoiding rejection pays for the backtracking 3412 search.
        """
        if not self.is_fully_commutative():
            return ("321", self._least_321())
        if self.depth() == len(self.support()):
            return None
        return ("3412", self._pattern_witness(_PATTERN_3412))

    def _least_321(self) -> tuple[int, int, int]:
        """The lexicographically least positions (i, j, k) of a 321 in w, which
        must contain one.  Call a position a middle when some later entry is
        smaller.  The least i is the first position whose value exceeds some
        later middle's, j is the first such middle after i, and k the first
        later entry below w(j).  Three passes, O(n)."""
        w = self.entries
        n = len(w)
        # low[p]: the least of w[p:], 0-based
        low = list(itertools.accumulate(reversed(w), min, initial=n + 1))[::-1]
        least_middle = n + 1  # the least middle value right of p
        for p in range(n - 1, -1, -1):
            if w[p] > least_middle:
                i = p
            elif low[p + 1] < w[p]:
                least_middle = w[p]
        j = next(p for p in range(i + 1, n) if low[p + 1] < w[p] < w[i])
        k = next(p for p in range(j + 1, n) if w[p] < w[j])
        return (i + 1, j + 1, k + 1)

    def lex_least_lis(self) -> Subsequence:
        """The longest increasing subsequence whose value sequence is
        lexicographically least among all longest increasing subsequences.

        Patience sorting over the entries read right to left puts each position
        on the level equal to the length of the longest increasing subsequence
        starting there.  Along one level the values rise as the positions
        fall: if i < j shared a level and w(i) < w(j), then i would sit one
        level higher.  A pick on level k + 1 has some larger value to its right
        on level k, so the least value on level k above the pick also lies to
        its right, and one binary search finds it.  The picks' positions rise
        too, so each is found by scanning the entries on from the previous
        one: a single pass in all, with no inverse table.  O(n log n).

        >>> Permutation((5, 1, 6, 4, 2, 7, 3, 8)).lex_least_lis().values
        (1, 2, 3, 8)
        """
        return _least_lis(self.entries)

    def __str__(self) -> str:
        return format_letters(self.entries)


@lru_cache(maxsize=1)  # the last LIS: the statistic and the first step reuse it
def _least_lis(entries: tuple[int, ...]) -> Subsequence:
    """``Permutation(entries).lex_least_lis()``."""
    tails: list[int] = []  # tails[k]: least -w(i) seen on level k + 1
    levels: list[list[int]] = []  # levels[k]: values on level k + 1, ascending
    for v in reversed(entries):
        k = bisect_left(tails, -v)
        if k == len(tails):
            tails.append(-v)
            levels.append([v])
        else:
            tails[k] = -v
            levels[k].append(v)
    positions = []
    values = []
    floor_val = floor_pos = 0
    for level in reversed(levels):
        floor_val = level[bisect_right(level, floor_val)]
        floor_pos = entries.index(floor_val, floor_pos) + 1
        positions.append(floor_pos)
        values.append(floor_val)
    return Subsequence(tuple(positions), tuple(values))


def identity(n: int) -> Permutation:
    _integer(n, "degree")
    return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """Every element of S_n, in lexicographic order of one-line notation."""
    for entries in itertools.permutations(identity(n).entries):
        yield Permutation(entries)


def boolean_permutations(n: int) -> Iterator[Permutation]:
    """The boolean elements of S_n, F(2n-1) of them: one per ``orient`` of
    ``canonical._canonical_from_orientation``, built depth-first in lexicographic
    order of the orientations, each letter's read as absent < 0 < +1 < -1."""
    from .canonical import _canonical_from_orientation
    from .words import _walk, evaluate

    identity(n)  # rejects n as all_permutations(n) does
    # the signs letter a+1 may take after letter a's, each sign its own label and state
    signs = {None: (None, 0, 1, -1), 0: (None,), 1: (0, 1, -1), -1: (0, 1, -1)}
    after = {s: tuple((t, t) for t in following) for s, following in signs.items()}
    for orient in _walk(after, n - 1, {None, 0}):  # orient[0] is None; letter n-1 takes no ±1
        yield evaluate(_canonical_from_orientation(orient, n).word)
