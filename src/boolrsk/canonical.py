"""The canonical reduced word of a boolean permutation.

Every boolean permutation has a distinguished optimal run word: push each
decreasing run as far left as commutations allow and each increasing run as
far right, working upward from the smallest letter.  The same word falls out
of a left-to-right scan of the heap.  Its run endpoints determine the second
rows of both RSK tableaux, which is what makes it worth singling out.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, lt

from .errors import DomainError, NotBooleanError
from .words import Heap, RunWord, Word, _heap_of_word, evaluate


# The one dataclass value type: the benchmark smoke test calls dataclasses.replace on it.
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
        # Checks in C-level passes; a loop runs only to name the first violation.
        # A run's least and greatest letters are its two ends.
        n = self.n
        letters = [a for run in self.dec_runs + self.inc_runs for a in run.letters]
        distinct = set(letters)
        if len(distinct) < len(letters) or not distinct <= set(range(1, n)):
            seen: set[int] = set()
            for a in letters:
                if not 1 <= a <= n - 1:
                    raise ValueError(f"letter {a} out of range 1..{n - 1}")
                if a in seen:
                    raise ValueError(f"letter {a} repeated across runs")
                seen.add(a)
        dec_first = [run.letters[0] for run in self.dec_runs]
        dec_last = [run.letters[-1] for run in self.dec_runs]
        if any(map(lt, dec_first, dec_last)):
            run = next(run for run in self.dec_runs if run.first < run.last)
            raise ValueError(f"increasing run {run.letters} in the decreasing list")
        inc_first = [run.letters[0] for run in self.inc_runs]
        inc_last = [run.letters[-1] for run in self.inc_runs]
        if not all(map(lt, inc_first, inc_last)):
            run = next(run for run in self.inc_runs if not run.first < run.last)
            raise ValueError(f"run {run.letters} in the increasing list must ascend")
        if any(map(gt, dec_first, dec_last[1:])):
            raise ValueError("decreasing runs must be ordered smaller letters first")
        if any(map(lt, inc_first, inc_last[1:])):
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
    visits each once: O(n log n).  Both letters of a cover are elements.
    """
    elements, covers = heap.elements, heap.covers
    ordered = sorted(elements)
    dec: list[RunWord] = []
    inc: list[RunWord] = []
    i = 0
    while i < len(ordered):
        a = b = ordered[i]
        if a + 1 not in elements:
            dec.append(RunWord((a,)))
        elif (a + 1, a) in covers:
            b = a + 1
            while (b + 1, b) in covers:
                b += 1
            dec.append(RunWord(tuple(range(b, a - 1, -1))))
        else:
            b = a + 1
            while (b, b + 1) in covers:
                b += 1
            inc.append(RunWord(tuple(range(a, b + 1))))
        i += b - a + 1
    inc.reverse()
    return CanonicalWord(tuple(dec), tuple(inc), heap.n)


def canonical_from_word(word: Word) -> CanonicalWord:
    """Build the canonical word from an arbitrary reduced word of a boolean
    permutation.

    Distinct letters always make a reduced word of a boolean permutation, and
    fix the order of every pair of consecutive letters: that is the heap,
    which the heap scan then reads.  The result does not depend on which
    reduced word was supplied.
    """
    if len(set(word.letters)) != len(word.letters):
        w = evaluate(word)
        if len(word) != w.length():
            raise DomainError(f"word {word.letters} is not reduced")
        raise NotBooleanError(*w.boolean_witness())
    return canonical_from_heap(_heap_of_word(word))


def leftmost_letters(canonical: CanonicalWord) -> frozenset[int]:
    """First letters of the runs, in the assembled word's reading order."""
    return frozenset(run.first for run in canonical.runs)


def rightmost_letters(canonical: CanonicalWord) -> frozenset[int]:
    """Last letters of the runs, in the assembled word's reading order."""
    return frozenset(run.last for run in canonical.runs)
