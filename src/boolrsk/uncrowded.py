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

from .errors import CrowdedError, DomainError, _in_range, _integer

# The sibling modules (canonical, rsk, words) are imported inside the functions
# that construct their classes, so checking or counting loads only this module.


def _sorted_integers(values: Iterable[int]) -> list[int]:
    """The distinct values in increasing order; a non-integer is rejected."""
    elements = sorted(set(values))
    for e in elements:
        _integer(e, "element")
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

    One pass over the sorted letters writes the orientations that the
    canonical-word scan reads.  ``base`` is the current level's pivot (0 at
    first) and ``place`` the number of rising runs it has opened: a letter
    base + 2*place + 1 opens the rising run m, m+1, and any other letter is
    the level's pivot and heads the falling run m, m-1.  The second letter of
    each pair carries the other sign, so every run ends after two letters.
    O(|letters|), at any degree.
    """
    from .canonical import _canonical_from_orientation

    _integer(n, "degree")
    wanted = sorted(set(letters))
    _in_range(wanted, 1, n - 1, "letter", DomainError)
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
    orient: list = [None] * (max(wanted, default=0) + 2)
    base = place = 0
    for m in wanted:
        if m == base + 2 * place + 1:
            orient[m : m + 2] = 1, -1
            place += 1
        else:  # uncrowdedness puts the pivot above base + 2*place + 1
            orient[m - 1 : m + 1] = -1, 1
            base, place = m, 0
    if orient[-1] is not None and len(orient) > n:
        raise DomainError(f"construction needs letter {len(orient) - 1} but the degree is {n}")
    return _canonical_from_orientation(orient, n)


def tableau_from_binary_word(word: BinaryWord) -> StandardTableau:
    """The uncrowded tableau encoded by a binary word with odd blocks of 1s.

    Index i counts down from the top (entry n+1-i), and ``place`` is the
    position of bit i in its block of 1s, 0 for a 0 bit.  The entry goes to
    row two when ``place`` is 1 or even, and to row one otherwise: a block of
    1s starting at i and ending at i+2k puts the entries at i, i+1, i+3, ...,
    i+2k-1 in row two and those at i+2, i+4, ..., i+2k in row one.  One pass;
    the all-zeros word gives the one-row tableau.
    """
    from .rsk import StandardTableau

    rows: tuple[list[int], list[int]] = ([], [])
    place = 0
    for z, bit in zip(range(word.n, 0, -1), word.bits + (0,)):  # a 0 closes the last block
        if bit:
            place += 1
        elif place and place % 2 == 0:
            raise DomainError(f"{word} has an even block of 1s")
        else:
            place = 0
        rows[place == 1 or (place > 0 and place % 2 == 0)].append(z)
    # rows splitting 1..n, row one holding 1.  Read upward, a block and the row-one
    # entry below it never put more in row two than in row one, so columns rise.
    return StandardTableau._trusted(tuple(tuple(row[::-1]) for row in rows if row))


def binary_word_from_tableau(tableau: StandardTableau) -> BinaryWord:
    """The binary word encoding an uncrowded tableau; inverse of
    tableau_from_binary_word.

    One pass over the entries z = n..2, with ``place`` as there: an entry of
    row two, or any entry after an even place, goes on with the block of 1s,
    and any other entry is a 0.  Uncrowdedness is what forces this pattern:
    the entries z-2, z-4, ..., z-2k of a block opened at z with z-1 in row two
    all sit in row one.  Crowded second rows are rejected.
    """
    from .words import BinaryWord

    if not tableau.has_contiguous_content():
        raise DomainError("tableau entries must be exactly 1..n")
    witness = tableau_crowding_witness(tableau)
    if witness is not None:
        raise CrowdedError(f"second row {sorted(tableau.row2)} is crowded", witness)
    row2 = set(tableau.row2)
    bits = []
    place = 0
    for z in range(tableau.n, 1, -1):
        place = place + 1 if z in row2 or (place and place % 2 == 0) else 0
        bits.append(1 if place else 0)
    # bits of 0 and 1 only
    return BinaryWord._trusted(tuple(bits))


def odd_run_words(n: int) -> Iterator[BinaryWord]:
    """All binary words of length n-1 whose blocks of 1s have odd length, in
    lexicographic order: the walks through the states "out" of a block of 1s,
    or in an "odd" or "even" one by the length so far."""
    from .words import BinaryWord, _walk

    _integer(n, "degree")
    if n < 1:
        raise ValueError("degree must be at least 1")
    after = {"out": ((0, "out"), (1, "odd")), "odd": ((0, "out"), (1, "even")), "even": ((1, "odd"),)}
    for bits in _walk({None: after["out"], **after}, n - 1, {None, "out", "odd"}):
        # bits of 0 and 1 only, after the path's leading None
        yield BinaryWord._trusted(tuple(bits[1:]))


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
        _integer(n, "degree")
    if lo < 1:
        raise ValueError("degree must be at least 1")
    for total, starting_with_one in islice(_word_counts(), lo - 1, hi):
        yield UncrowdedCounts(total, total - 1, starting_with_one)


def count_uncrowded(n: int) -> UncrowdedCounts:
    """Counts of uncrowded tableaux of size n: all of them, those with two
    rows, and those whose second row contains n (equivalently, binary words
    starting with 1)."""
    return next(count_uncrowded_range(n, n))
