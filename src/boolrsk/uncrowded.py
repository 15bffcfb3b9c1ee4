"""Uncrowded sets and tableaux, and their bijection with binary words.

A set of integers is uncrowded when every window of 2x+1 consecutive integers
holds at most x+1 of its elements.  The two-row standard tableaux whose
second row is uncrowded are exactly the insertion (and recording) tableaux of
boolean permutations, and they are counted by the binary words of length n-1
whose maximal blocks of 1s all have odd length.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import islice

from .errors import CrowdedError, DomainError

# The sibling modules (canonical, rsk, words) are imported inside the functions
# that construct their classes, so checking or counting loads only this module.


def _sorted_integers(values: Iterable[int]) -> list[int]:
    """The distinct values in increasing order; a non-integer is rejected."""
    elements = sorted(set(values))
    for e in elements:
        if not isinstance(e, int):
            raise ValueError(f"element {e} is not an integer")
    return elements


def crowding_witness(values: Iterable[int]) -> tuple[int, int, int] | None:
    """The violating window [y, y+2x] with the least y, then the least x, as
    (y, x, count); None when the set is uncrowded.

    Only windows starting at an element need checking: a violating window
    shrinks to one.  Sort the set as e_0 < e_1 < ...; the window at e_i with
    half-width x is crowded exactly when e_{i+x+1} <= e_i + 2x.  So start i
    is crowded when some later j has e_j - e_i <= 2(j-i-1), that is
    f(j) <= f(i) - 2 for f(k) = e_k - 2k, and one pass from the right with
    the running minimum of f finds the least such i.  Only a crowded set then
    pays a scan for the least x.
    """
    elements = _sorted_integers(values)
    first = None
    lowest = math.inf  # the least f(j) over the elements right of i
    for i in range(len(elements) - 1, -1, -1):
        f = elements[i] - 2 * i
        if lowest <= f - 2:
            first = i
        elif f < lowest:
            lowest = f
    if first is None:
        return None
    y = elements[first]
    x = next(x for x in range(1, len(elements) - first - 1) if elements[first + x + 1] - y <= 2 * x)
    return (y, x, bisect_right(elements, y + 2 * x) - first)


def is_uncrowded(values: Iterable[int]) -> bool:
    """True when every window [y, y+2x] holds at most x+1 elements.

    >>> is_uncrowded({3, 4})
    True
    >>> is_uncrowded({4, 6, 7, 8})
    False
    """
    return crowding_witness(values) is None


def tableau_crowding_witness(tableau: StandardTableau) -> tuple[int, int, int] | None:
    """crowding_witness of the second row of an (at most two-row) tableau."""
    if len(tableau.rows) > 2:
        raise DomainError(f"tableau has {len(tableau.rows)} rows; at most two allowed")
    return crowding_witness(tableau.row2)


def is_uncrowded_tableau(tableau: StandardTableau) -> bool:
    """True when the (at most two-row) tableau has an uncrowded second row."""
    return tableau_crowding_witness(tableau) is None


def is_feasible_second_row(values: Iterable[int]) -> bool:
    """True when some two-row standard tableau has this set inside its second
    row: the j-th smallest element must be at least 2j."""
    return all(r >= 2 * j for j, r in enumerate(_sorted_integers(values), start=1))


def realize_leftmost_letters(letters: Iterable[int], n: int) -> CanonicalWord:
    """A canonical word whose runs start exactly at the given letters.

    Exists if and only if the letter set together with 0 is uncrowded.  Writing
    the letters as m_0 < ... < m_k, uncrowdedness forces m_i >= 2i+1; when
    equality holds throughout the word is the stack of two-letter increasing
    runs (2k+1)(2k+2) ... 34.12.  Otherwise the smallest excess letter m_j
    heads a two-letter decreasing run, the letters above m_j recurse after a
    downward shift, and the letters below continue as two-letter increasing
    runs.  Rejects constructions needing letters outside 1..n-1.
    """
    from .canonical import CanonicalWord

    if not isinstance(n, int):
        raise ValueError(f"degree {n} is not an integer")
    wanted = sorted(set(letters))
    for a in wanted:
        if not (isinstance(a, int) and 1 <= a <= n - 1):
            raise DomainError(f"letter {a} out of range 1..{n - 1}")
    if n < 1:
        raise ValueError("degree must be at least 1")
    witness = crowding_witness(set(wanted) | {0})
    if witness is not None:
        y, x, count = witness
        raise CrowdedError(
            f"{sorted(set(wanted) | {0})} is crowded: window [{y}, {y + 2 * x}] "
            f"holds {count} > {x + 1} elements",
            witness,
        )
    dec, inc = _realize(wanted)
    top = max((a for run in dec + inc for a in run.letters), default=0)
    if top > n - 1:
        raise DomainError(f"construction needs letter {top} but the degree is {n}")
    # disjoint runs below n: decreasing ones rising, increasing ones falling
    return CanonicalWord._trusted(tuple(dec), tuple(inc), n)


def _realize(wanted: list[int]) -> tuple[list[RunWord], list[RunWord]]:
    from .words import RunWord

    # The recursion on the letters above each pivot, unrolled: ``start`` is the
    # first letter of the current level and ``base`` the shift back to the
    # original letters.  Each level's increasing runs go before those of the
    # levels above it, so they are collected per level and joined reversed.
    dec, inc_levels = [], []
    start, base = 0, 0
    while start < len(wanted):
        j = next(
            (i for i in range(len(wanted) - start) if wanted[start + i] - base != 2 * i + 1),
            None,
        )
        if j is None:
            k = len(wanted) - start - 1
            inc_levels.append([(base + 2 * i + 1, base + 2 * i + 2) for i in range(k, -1, -1)])
            break
        pivot = wanted[start + j]
        assert pivot - base > 2 * j + 1, "uncrowdedness forces the i-th letter to be at least 2i+1"
        dec.append((pivot, pivot - 1))
        inc_levels.append([(base + 2 * i - 1, base + 2 * i) for i in range(j, 0, -1)])
        start, base = start + j + 1, pivot
    inc = [pair for level in reversed(inc_levels) for pair in level]
    # each pair is two consecutive letters, so a run
    return [RunWord._trusted(pair) for pair in dec], [RunWord._trusted(pair) for pair in inc]


def tableau_from_binary_word(word: BinaryWord) -> StandardTableau:
    """The uncrowded tableau encoded by a binary word with odd blocks of 1s.

    The all-zeros word gives the one-row tableau.  Otherwise index i counts
    down from the top (entry n+1-i): a 0 puts its entry in row one; a block of
    1s starting at i and ending at i+2k puts the entries at i, i+1, i+3, ...,
    i+2k-1 in row two and those at i+2, i+4, ..., i+2k in row one.
    """
    from .rsk import StandardTableau

    runs = word.one_runs()
    if any(length % 2 == 0 for _, length in runs):
        raise DomainError(f"{word} has an even block of 1s")
    n = word.n
    if not runs:
        # 1..n in one row, n >= 1
        return StandardTableau._trusted((tuple(range(1, n + 1)),))
    row1 = {1}
    row2 = set()
    for i, bit in enumerate(word.bits, start=1):
        if bit == 0:
            row1.add(n + 1 - i)
    for start, length in runs:
        end = start + length - 1
        row2.add(n + 1 - start)
        for j in range(start + 1, end, 2):
            row2.add(n + 1 - j)
        for j in range(start + 2, end + 1, 2):
            row1.add(n + 1 - j)
    # rows splitting 1..n, row two nonempty.  Read upward, a block and the row-one
    # entry below it never put more in row two than in row one, so columns rise.
    return StandardTableau._trusted((tuple(sorted(row1)), tuple(sorted(row2))))


def binary_word_from_tableau(tableau: StandardTableau) -> BinaryWord:
    """The binary word encoding an uncrowded tableau; inverse of
    tableau_from_binary_word.

    One pass over the indices i = 1..n-1, each naming the entry z = n+1-i.
    An entry z of row two opens a block of 1s.  The block is the single 1 at
    i unless z-1 is in row two too; then it runs to the first i+2k with
    z-2k-1 not in row two.  Uncrowdedness is what forces this pattern: the
    entries z-2, z-4, ..., z-2k of such a block all sit in row one.  Crowded
    second rows are rejected.
    """
    from .words import BinaryWord

    if not tableau.has_contiguous_content():
        raise DomainError("tableau entries must be exactly 1..n")
    witness = tableau_crowding_witness(tableau)
    if witness is not None:
        raise CrowdedError(f"second row {sorted(tableau.row2)} is crowded", witness)
    n = tableau.n
    bits = [0] * (n - 1)
    row2 = set(tableau.row2)
    i = 1
    while i < n:
        z = n + 1 - i
        if z not in row2:
            i += 1
            continue
        k = 0
        if z - 1 in row2:
            k = 1
            while z - 2 * k - 1 in row2:
                k += 1
        bits[i - 1 : i + 2 * k] = [1] * (2 * k + 1)
        i += 2 * k + 1
    # zeros with blocks of ones written in
    return BinaryWord._trusted(tuple(bits))


def odd_run_words(n: int) -> Iterator[BinaryWord]:
    """All binary words of length n-1 whose blocks of 1s have odd length, in
    lexicographic order."""
    from .words import BinaryWord

    if not isinstance(n, int):
        raise ValueError(f"degree {n} is not an integer")
    if n < 1:
        raise ValueError("degree must be at least 1")
    bits = [0] * (n - 1)
    while True:
        # bits of 0 and 1 only
        yield BinaryWord._trusted(tuple(bits))
        # The next word keeps the longest prefix that can take a 1 where the
        # current word has a 0, then completes it as small as possible: with
        # zeros if the block of 1s so made is odd, else with one more 1 first.
        p = len(bits) - 1
        while p >= 0:
            if bits[p] == 0:
                block = 1
                while p - block >= 0 and bits[p - block] == 1:
                    block += 1
                if block % 2 == 1 or p + 1 < len(bits):
                    break
                p -= block
            else:
                p -= 1
        if p < 0:
            return
        head = [1, 1] if block % 2 == 0 else [1]
        bits[p:] = head + [0] * (len(bits) - p - len(head))


UncrowdedCounts = namedtuple("UncrowdedCounts", ["total", "two_row", "max_in_row2"])


def _word_counts() -> Iterator[tuple[int, int]]:
    """(c(m), t(m)) for m = 0, 1, 2, ...: c(m) counts the binary words of
    length m whose blocks of 1s are odd, t(m) those among them starting with 1.

    For m >= 2 a word starting with 1 opens either with "10" and any word of
    length m - 2, or with a block of three or more 1s whose first two drop off
    to leave a word counted by t(m - 2); so t(m) = c(m - 2) + t(m - 2), and
    c(m) = c(m - 1) + t(m) by the first letter.  One rolling pass keeps only
    the last two pairs.
    """
    older, old = (1, 0), (2, 1)
    yield older
    yield old
    while True:
        starting_with_one = older[0] + older[1]
        older, old = old, (old[0] + starting_with_one, starting_with_one)
        yield old


def count_uncrowded_range(lo: int, hi: int) -> Iterator[UncrowdedCounts]:
    """count_uncrowded(n) for n = lo..hi, in one pass of O(hi) additions."""
    for n in (lo, hi):
        if not isinstance(n, int):
            raise ValueError(f"degree {n} is not an integer")
    if lo < 1:
        raise ValueError("degree must be at least 1")
    for total, starting_with_one in islice(_word_counts(), lo - 1, hi):
        yield UncrowdedCounts(total, total - 1, starting_with_one)


def count_uncrowded(n: int) -> UncrowdedCounts:
    """Counts of uncrowded tableaux of size n: all of them, those with two
    rows, and those whose second row contains n (equivalently, binary words
    starting with 1)."""
    return next(count_uncrowded_range(n, n))
