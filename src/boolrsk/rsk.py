"""Row insertion: standard tableaux, shapes, and second rows without insertion.

Insertion follows the classical rule: a value entering a row bumps the
leftmost entry strictly greater than it, and the bumped value drops to the
next row.  The recording tableau marks where each new cell appeared.  For a
boolean permutation the tableaux have at most two rows and their second rows
can be read straight off the canonical reduced word: add one to each run's
first letter for the insertion tableau, to each run's last letter for the
recording tableau.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from operator import le

from ._value import Value

# Annotations name Permutation and CanonicalWord; neither module loads with this one.


class Shape(Value):
    """A partition: weakly decreasing positive parts."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        object.__setattr__(self, "parts", tuple(parts))
        if not all(isinstance(a, int) for a in self.parts):
            raise ValueError(f"parts {self.parts} not all integers")
        for a, b in zip(self.parts, self.parts[1:]):
            if b > a:
                raise ValueError(f"parts {self.parts} not weakly decreasing")
        if self.parts and self.parts[-1] < 1:
            raise ValueError("parts must be positive")


class StandardTableau(Value):
    """Rows of a standard-style tableau: distinct positive entries increasing
    along rows and down columns, row lengths weakly decreasing.

    Insertion tableaux of permutations carry the values 1..n exactly; other
    tableaux need not, so contiguity is tested by ``has_contiguous_content``
    where it matters, not at construction.
    """

    _fields = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))
        if not self.rows or not all(self.rows):
            raise ValueError("rows must be nonempty")
        entries = [v for row in self.rows for v in row]
        if not all(isinstance(v, int) for v in entries):
            raise ValueError("entries must be integers")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("row lengths must weakly decrease")
            for a, b in zip(upper, lower):
                if b <= a:
                    raise ValueError(f"column not increasing: {a} above {b}")
        for row in self.rows:
            if any(map(le, row[1:], row)):
                raise ValueError(f"row not increasing: {row}")
        if len(set(entries)) != len(entries):
            raise ValueError("entries must be distinct")
        if min(entries) < 1:
            raise ValueError("entries must be positive")

    def has_contiguous_content(self) -> bool:
        """True when the entries are exactly 1..n."""
        entries = sorted(v for row in self.rows for v in row)
        return entries == list(range(1, len(entries) + 1))

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    def shape(self) -> Shape:
        return Shape(tuple(len(row) for row in self.rows))

    @property
    def row2(self) -> tuple[int, ...]:
        return self.rows[1] if len(self.rows) > 1 else ()


def _insert(values) -> tuple[list[list[int]], list[list[int]]]:
    """The insertion and recording rows after inserting ``values`` in order
    into an empty tableau.  A value goes to the end of the first row whose
    last entry it exceeds; each row before that one swaps it for its least
    larger entry, which goes on to the next row."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(values, start=1):
        r = 0
        for row in p_rows:
            if value > row[-1]:
                row.append(value)
                q_rows[r].append(step)
                break
            k = bisect.bisect_right(row, value)
            value, row[k] = row[k], value
            r += 1
        else:  # the value starts a new row
            p_rows.append([value])
            q_rows.append([step])
    return p_rows, q_rows


def rsk(w: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Insert w(1), ..., w(n); return the insertion and recording tableaux.

    >>> from boolrsk.permutation import Permutation
    >>> P, Q = rsk(Permutation((3, 4, 1, 2)))
    >>> P.rows
    ((1, 2), (3, 4))
    """
    # row insertion of n >= 1 distinct values keeps both tableaux standard
    return tuple(StandardTableau._trusted(tuple(map(tuple, rows))) for rows in _insert(w.entries))


def shape_of(w: Permutation) -> Shape:
    """The common shape of the insertion and recording tableaux.

    Its first part is the length of a longest increasing subsequence of w and
    the first part of its conjugate is the length of a longest decreasing one.
    """
    # the row lengths of an insertion tableau
    return Shape._trusted(tuple(map(len, _insert(w.entries)[0])))


def row2_from_canonical(canonical: CanonicalWord) -> tuple[frozenset[int], frozenset[int]]:
    """Second rows of the insertion and recording tableaux, read directly off
    the canonical word's run endpoints; no insertion is performed."""
    runs = canonical.runs
    row2_p = frozenset([run.letters[0] + 1 for run in runs])
    row2_q = frozenset([run.letters[-1] + 1 for run in runs])
    return row2_p, row2_q
