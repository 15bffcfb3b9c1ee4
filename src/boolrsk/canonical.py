"""The canonical reduced word of a boolean permutation.

Every boolean permutation has a distinguished optimal run word: push each
decreasing run as far left as commutations allow and each increasing run as
far right, working upward from the smallest letter.  The same word falls out
of a left-to-right scan of the heap.  Its run endpoints determine the second
rows of both RSK tableaux, which is what makes it worth singling out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NotBooleanError
from .words import Heap, RunWord, Word, _heap_of_word, evaluate, is_reduced


@dataclass(frozen=True)
class CanonicalWord:
    """A reduced word stored as its run partition: decreasing runs (smallest
    letters first), then increasing runs (largest letters first).

    The stored partition is authoritative; consumers read run endpoints from
    it rather than re-decomposing the flat word.
    """

    dec_runs: tuple[RunWord, ...]
    inc_runs: tuple[RunWord, ...]
    n: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for run in self.dec_runs + self.inc_runs:
            for a in run.letters:
                if not 1 <= a <= self.n - 1:
                    raise ValueError(f"letter {a} out of range 1..{self.n - 1}")
                if a in seen:
                    raise ValueError(f"letter {a} repeated across runs")
                seen.add(a)
        for run in self.dec_runs:
            if run.direction == "increasing":
                raise ValueError(f"increasing run {run.letters} in the decreasing list")
        for run in self.inc_runs:
            if run.direction != "increasing":
                raise ValueError(f"run {run.letters} in the increasing list must ascend")
        for left, right in zip(self.dec_runs, self.dec_runs[1:]):
            if max(left.letters) > min(right.letters):
                raise ValueError("decreasing runs must be ordered smaller letters first")
        for left, right in zip(self.inc_runs, self.inc_runs[1:]):
            if min(left.letters) < max(right.letters):
                raise ValueError("increasing runs must be ordered larger letters first")

    @property
    def runs(self) -> tuple[RunWord, ...]:
        return self.dec_runs + self.inc_runs

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(a for run in self.runs for a in run.letters)

    @property
    def word(self) -> Word:
        return Word(self.letters, self.n)

    def __len__(self) -> int:
        return len(self.letters)


def canonical_from_heap(heap: Heap) -> CanonicalWord:
    """Build the canonical word by scanning the heap left to right.

    Take the smallest element a.  If a+1 is absent, a is a singleton
    decreasing run.  If a+1 lies below a, walk right to the first minimal
    element b and append the decreasing run b..a.  If a+1 lies above a, walk
    right to the first maximal element b and prepend the increasing run a..b.
    Skip the consumed interval and repeat.  The consumed elements are always
    the least ones left, so one ascending sweep over the sorted elements
    visits each once: O(n log n).
    """
    elements = sorted(heap.elements)
    dec: list[RunWord] = []
    inc: list[RunWord] = []
    i = 0
    while i < len(elements):
        a = elements[i]
        b = a
        if a + 1 not in heap.elements:
            dec.append(RunWord((a,)))
        elif heap.precedes(a + 1, a):
            b = a + 1
            while b + 1 in heap.elements and heap.precedes(b + 1, b):
                b += 1
            dec.append(RunWord(tuple(range(b, a - 1, -1))))
        else:
            b = a + 1
            while b + 1 in heap.elements and heap.precedes(b, b + 1):
                b += 1
            inc.append(RunWord(tuple(range(a, b + 1))))
        i += b - a + 1
    inc.reverse()
    return CanonicalWord(tuple(dec), tuple(inc), heap.n)


def canonical_from_word(word: Word) -> CanonicalWord:
    """Build the canonical word from an arbitrary reduced word of a boolean
    permutation.

    The word's letters are distinct, so it fixes the order of every pair of
    consecutive letters: that is the heap, which the heap scan then reads.
    The result does not depend on which reduced word was supplied.
    """
    if not is_reduced(word):
        raise DomainError(f"word {word.letters} is not reduced")
    if len(set(word.letters)) != len(word.letters):
        # a reduced word with a repeated letter cannot come from a boolean permutation
        witness = evaluate(word).boolean_witness()
        assert witness is not None
        raise NotBooleanError(*witness)
    return canonical_from_heap(_heap_of_word(word))


def leftmost_letters(canonical: CanonicalWord) -> frozenset[int]:
    """First letters of the runs, in the assembled word's reading order."""
    return frozenset(run.first for run in canonical.runs)


def rightmost_letters(canonical: CanonicalWord) -> frozenset[int]:
    """Last letters of the runs, in the assembled word's reading order."""
    return frozenset(run.last for run in canonical.runs)
