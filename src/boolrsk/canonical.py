"""The canonical reduced word of a boolean permutation.

Every boolean permutation has a distinguished optimal run word: push each
decreasing run as far left as commutations allow and each increasing run as
far right, working upward from the smallest letter.  The same word falls out
of a left-to-right scan of the heap.  Its run endpoints determine the second
rows of both RSK tableaux, which is what makes it worth singling out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._value import Value
from .errors import DomainError, NotBooleanError, _integer
from .words import Heap, RunWord, Word, evaluate


# The one dataclass value type: the benchmark smoke test calls dataclasses.replace on
# it.  The dataclass methods replace Value's; Value gives it ``_trusted``.
@dataclass(frozen=True)
class CanonicalWord(Value):
    """A reduced word stored as its run partition: decreasing runs (smallest
    letters first), then increasing runs (largest letters first).

    The stored partition is authoritative; consumers read run endpoints from
    it rather than re-decomposing the flat word.
    """

    _fields = ("dec_runs", "inc_runs", "n")

    dec_runs: tuple[RunWord, ...]
    inc_runs: tuple[RunWord, ...]
    n: int

    def __post_init__(self) -> None:
        # One pass per rule, raising at its first violation; a run's ends are its extremes.
        _integer(self.n, "degree")
        n, dec, inc = self.n, tuple(self.dec_runs), tuple(self.inc_runs)
        object.__setattr__(self, "dec_runs", dec)  # stored as tuples, so hashable
        object.__setattr__(self, "inc_runs", inc)
        seen: set[int] = set()
        for a in self.letters:
            if not 1 <= a <= n - 1:
                raise ValueError(f"letter {a} out of range 1..{n - 1}")
            if a in seen:
                raise ValueError(f"letter {a} repeated across runs")
            seen.add(a)
        for run in dec:
            if run.first < run.last:
                raise ValueError(f"increasing run {run.letters} in the decreasing list")
        for run in inc:
            if not run.first < run.last:
                raise ValueError(f"run {run.letters} in the increasing list must ascend")
        if any(lower.first > upper.last for lower, upper in zip(dec, dec[1:])):
            raise ValueError("decreasing runs must be ordered smaller letters first")
        if any(upper.first < lower.last for upper, lower in zip(inc, inc[1:])):
            raise ValueError("increasing runs must be ordered larger letters first")
        if n < 1:
            raise ValueError("degree must be at least 1")

    @property
    def runs(self) -> tuple[RunWord, ...]:
        return self.dec_runs + self.inc_runs

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(a for run in self.runs for a in run.letters)

    @property
    def word(self) -> Word:
        # checked letters, each in 1..n-1, and a checked integer degree
        return Word._trusted(self.letters, self.n)

    def __len__(self) -> int:
        return len(self.letters)


def _canonical_from_orientation(orient: list, n: int) -> CanonicalWord:
    """The canonical word of degree n from ``orient[a]`` for each letter a:
    None when a is absent, 0 when a+1 is, +1 when a comes before a+1 and -1
    when after it.  The list may stop short of n, past its last letter.

    A run starts at the least letter a not yet read and goes on while the sign
    repeats, up to the first letter b with another: the singleton a for sign
    0, the decreasing run b..a for -1, the increasing run a..b for +1.  One
    upward scan reads every run and goes on from b + 1; each run's letters
    are a slice of one tuple 0..len(orient)-1.  O(len(orient)).
    """
    letters = tuple(range(len(orient)))
    dec: list[RunWord] = []
    inc: list[RunWord] = []
    a = 1  # orient[0] is None: there is no letter 0
    while a < len(orient):
        s = orient[a]
        if s is None:
            a += 1
            continue
        b = a
        while orient[b] == s != 0:
            b += 1
        if s > 0:
            # consecutive letters a..b, rising
            inc.append(RunWord._trusted(letters[a : b + 1]))
        else:
            # consecutive letters b..a, falling
            dec.append(RunWord._trusted(letters[b : a - 1 : -1]))
        a = b + 1
    inc.reverse()
    # disjoint runs of letters below n: decreasing ones rising, increasing ones falling
    return CanonicalWord._trusted(tuple(dec), tuple(inc), n)


def canonical_from_heap(heap: Heap) -> CanonicalWord:
    """Build the canonical word by scanning the heap left to right, O(n): each
    cover orients its lower letter, with no sort.  Both letters of a cover
    are elements."""
    orient: list = [None] * heap.n
    for e in heap.elements:
        orient[e] = 0
    for x, y in heap.covers:
        orient[x if x < y else y] = y - x
    return _canonical_from_orientation(orient, heap.n)


def canonical_from_word(word: Word) -> CanonicalWord:
    """Build the canonical word from an arbitrary reduced word of a boolean
    permutation.

    Distinct letters always make a reduced word of a boolean permutation and
    fix the order of every pair of consecutive letters, as its heap does: the
    orientations come from the letters' positions, with no heap built.  The
    result does not depend on which reduced word was supplied."""
    if len(set(word.letters)) != len(word.letters):
        w = evaluate(word)
        if len(word) != w.length():
            raise DomainError(f"word {word.letters} is not reduced")
        raise NotBooleanError(*w.boolean_witness())
    position: list = [None] * (word.n + 1)
    for i, a in enumerate(word.letters):
        position[a] = i
    orient = [None if p is None else 0 if q is None else 1 if p < q else -1
              for p, q in zip(position, position[1:])]
    return _canonical_from_orientation(orient, word.n)


def leftmost_letters(canonical: CanonicalWord) -> frozenset[int]:
    """First letters of the runs, in the assembled word's reading order."""
    return frozenset(run.first for run in canonical.runs)


def rightmost_letters(canonical: CanonicalWord) -> frozenset[int]:
    """Last letters of the runs, in the assembled word's reading order."""
    return frozenset(run.last for run in canonical.runs)
