"""Permutations in one-line notation and the statistics this library lives on.

Everything is 1-based, matching the usual combinatorics conventions:
``Permutation((5, 1, 3, 4, 2))`` sends 1 to 5, 2 to 1, and so on.  Values are
immutable after construction and all operations are pure, so instances are
safe to share across threads.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from functools import cached_property

from ._value import Value
from .errors import NotBooleanError

_PATTERN_321 = (3, 2, 1)
_PATTERN_3412 = (3, 4, 1, 2)


class Subsequence(Value):
    """Strictly increasing 1-based positions together with the values they carry."""

    _fields = ("positions", "values")

    def __init__(self, positions: tuple[int, ...], values: tuple[int, ...]) -> None:
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


class Permutation(Value):
    """A permutation of {1, ..., n} in one-line notation.

    >>> w = Permutation((5, 1, 3, 4, 2))
    >>> w(1), w.position_of(5)
    (5, 1)
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
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, v in enumerate(self.entries, start=1):
            inv[v - 1] = i
        return tuple(inv)

    def position_of(self, value: int) -> int:
        """The position holding ``value``, i.e. the inverse permutation applied to it."""
        if not 1 <= value <= self.n:
            raise ValueError(f"value {value} out of range 1..{self.n}")
        return self._positions[value - 1]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.entries, start=1))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (w * u)(i) = w(u(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"cannot compose degrees {self.n} and {other.n}")
        return Permutation(tuple(self.entries[v - 1] for v in other.entries))

    def inverse(self) -> "Permutation":
        """The inverse permutation: u with u(w(i)) = i.

        >>> Permutation((3, 1, 4, 2)).inverse()
        Permutation(entries=(2, 4, 1, 3))
        """
        return Permutation(self._positions)

    def length(self) -> int:
        """Coxeter length: the number of inversions (i < j with w(i) > w(j)).

        Counted in O(n log n) with a Fenwick tree over the values already
        read: each entry adds the number of earlier entries larger than it.
        ``is_boolean`` rests on this count: w is boolean exactly when
        l(w) = |supp(w)|.
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

    def contains_pattern(self, sigma: "Permutation") -> bool:
        """True when some subsequence of w is in the same relative order as sigma.

        >>> w = Permutation((3, 1, 4, 5, 9, 2, 6, 8, 7))
        >>> w.contains_pattern(Permutation((1, 4, 2, 3)))
        True
        >>> w.contains_pattern(Permutation((3, 2, 4, 1)))
        False
        """
        if sigma.n > self.n:
            raise ValueError(f"pattern degree {sigma.n} exceeds permutation degree {self.n}")
        return self._pattern_witness(sigma.entries) is not None

    def is_fully_commutative(self) -> bool:
        """True when w avoids 321; its reduced words then form one commutation class."""
        # a 321 is a value with a larger one on its left and a smaller one on its right
        w = self.entries
        n = self.n
        suffix_min = [0] * (n + 1)
        suffix_min[n] = n + 1
        for i in range(n - 1, -1, -1):
            suffix_min[i] = min(suffix_min[i + 1], w[i])
        prefix_max = 0
        for i in range(n):
            if prefix_max > w[i] > suffix_min[i + 1]:
                return False
            if w[i] > prefix_max:
                prefix_max = w[i]
        return True

    def is_boolean(self) -> bool:
        """True when w avoids both 321 and 3412, i.e. some (hence every) reduced
        word for w uses all distinct letters.

        Every reduced word uses each support letter at least once, so w is
        boolean exactly when l(w) = |supp(w)|.  That costs O(n log n) and
        searches for no pattern.
        """
        return self.length() == len(self.support())

    def boolean_witness(self) -> tuple[str, tuple[int, ...]] | None:
        """A (pattern, positions) pair showing why w is not boolean, or None.

        The positions are the lexicographically least occurrence of 321 if w
        contains 321, and of 3412 otherwise.  Boolean input returns None after
        the O(n log n) test l(w) = |supp(w)|; only a rejection pays for the
        backtracking search, and the 321 search runs only when the O(n) scan
        has found a 321.
        """
        if self.is_boolean():
            return None
        if not self.is_fully_commutative():
            return ("321", self._pattern_witness(_PATTERN_321))
        return ("3412", self._pattern_witness(_PATTERN_3412))

    def require_boolean(self) -> None:
        witness = self.boolean_witness()
        if witness is not None:
            raise NotBooleanError(*witness)

    def apply_word(self, letters: Sequence[int], side: str) -> "Permutation":
        """Multiply by the product of adjacent transpositions named by ``letters``.

        ``side="right"`` forms w * s, ``side="left"`` forms s * w, with the
        letters composed left to right in both cases.

        >>> str(Permutation((3, 4, 2, 5, 1, 6)).apply_word((4, 3, 2, 1), "right"))
        '134256'
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', not {side!r}")
        product = _product_of_letters(letters, self.n)
        return self * product if side == "right" else product * self

    def lex_least_lis(self) -> Subsequence:
        """The longest increasing subsequence whose value sequence is
        lexicographically least among all longest increasing subsequences.

        Patience sorting over the entries read right to left puts each position
        on the level equal to the length of the longest increasing subsequence
        starting there.  Along one level the values rise as the positions
        fall: if i < j shared a level and w(i) < w(j), then i would sit one
        level higher.  A pick on level k + 1 has some larger value to its right
        on level k, so the least value on level k above the pick also lies to
        its right, and one binary search finds it.  O(n log n).

        >>> Permutation((5, 1, 6, 4, 2, 7, 3, 8)).lex_least_lis().values
        (1, 2, 3, 8)
        """
        tails: list[int] = []  # tails[k]: least -w(i) seen on level k + 1
        levels: list[list[int]] = []  # levels[k]: values on level k + 1, ascending
        for v in reversed(self.entries):
            k = bisect_left(tails, -v)
            if k == len(tails):
                tails.append(-v)
                levels.append([v])
            else:
                tails[k] = -v
                levels[k].append(v)
        values = []
        floor_val = 0
        for level in reversed(levels):
            floor_val = level[bisect_right(level, floor_val)]
            values.append(floor_val)
        return Subsequence(tuple(self._positions[v - 1] for v in values), tuple(values))

    def __str__(self) -> str:
        return "".join(str(v) if v <= 9 else f"({v})" for v in self.entries)


def _product_of_letters(letters: Sequence[int], n: int) -> Permutation:
    """The permutation s_{i_1} ... s_{i_k} for the given letter sequence."""
    entries = list(range(1, n + 1))
    for a in letters:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range 1..{n - 1}")
        entries[a - 1], entries[a] = entries[a], entries[a - 1]
    return Permutation(tuple(entries))


def from_one_line(values: Sequence[int]) -> Permutation:
    """Build a permutation from one-line notation, rejecting malformed input."""
    return Permutation(tuple(values))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """Every element of S_n, in lexicographic order of one-line notation."""
    for entries in itertools.permutations(range(1, n + 1)):
        yield Permutation(entries)


def boolean_permutations(n: int) -> Iterator[Permutation]:
    """The boolean elements of S_n (those avoiding 321 and 3412)."""
    return (w for w in all_permutations(n) if w.is_boolean())
