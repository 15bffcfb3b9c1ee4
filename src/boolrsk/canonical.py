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
from .words import Heap, RunWord, Word, evaluate


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


def _canonical_from_orientation(orient: list, n: int) -> CanonicalWord:
    """The canonical word from ``orient[a]`` for each letter a: None when a is
    absent, 0 when a+1 is, +1 when a comes before a+1 and -1 when after it.

    A run starts at the least letter a not yet read and goes on while the sign
    repeats, up to the first letter b with another: the singleton a for sign
    0, the decreasing run b..a for -1, the increasing run a..b for +1.  One
    upward scan reads every run, O(n).
    """
    dec: list[RunWord] = []
    inc: list[RunWord] = []
    b = 0
    for a, s in enumerate(orient):
        if a <= b or s is None:
            continue
        b = a
        while orient[b] == s != 0:
            b += 1
        if s > 0:
            inc.append(RunWord(range(a, b + 1)))
        else:
            dec.append(RunWord(range(b, a - 1, -1)))
    inc.reverse()
    return CanonicalWord(tuple(dec), tuple(inc), n)


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
