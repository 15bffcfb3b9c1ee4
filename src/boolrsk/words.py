"""Words in the adjacent-transposition generators, their runs, and heaps.

A word is a sequence of letters in 1..n-1; letter i names the transposition
swapping i and i+1.  For a boolean permutation every reduced word uses each
support letter exactly once, so the relative order of the letters i and i+1
is the same in all of its reduced words.  That order is recorded here as a
partial order (a "heap") on the support whose linear extensions are exactly
the reduced words.  The 0/1 words that encode uncrowded tableaux (see
``uncrowded``) are kept here beside the other word types.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterator
from itertools import repeat
from operator import sub

from ._value import Value
from .errors import DegreeLimitError, NotBooleanError

ENUMERATION_DEGREE_LIMIT = 9
_RUN_STEPS = (frozenset({1}), frozenset({-1}))  # the steps a run of two or more letters may take


class Word(Value):
    """A letter sequence with an ambient degree ``n``; letters lie in 1..n-1."""

    _fields = ("letters", "n")

    def __init__(self, letters: tuple[int, ...], n: int) -> None:
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "n", n)
        if not isinstance(n, int):
            raise ValueError(f"degree {n} is not an integer")
        if n < 1:
            raise ValueError("degree must be at least 1")
        top = n - 1
        for a in self.letters:
            if not isinstance(a, int) or not 1 <= a <= top:
                raise ValueError(f"letter {a} out of range 1..{top}")

    def __len__(self) -> int:
        return len(self.letters)


class RunWord(Value):
    """A nonempty run: consecutive integers stepping by +1 or by -1 throughout.

    >>> RunWord((3, 4, 5, 6)).direction
    'increasing'
    >>> RunWord((8, 7)).direction
    'decreasing'
    """

    _fields = ("letters",)

    def __init__(self, letters: tuple[int, ...]) -> None:
        letters = tuple(letters)
        object.__setattr__(self, "letters", letters)
        if not letters:
            raise ValueError("run must be nonempty")
        if not all(map(isinstance, letters, repeat(int))) or (
            len(letters) > 1 and set(map(sub, letters[1:], letters)) not in _RUN_STEPS
        ):
            raise ValueError(f"not a run: {letters}")

    @property
    def direction(self) -> str:
        if len(self.letters) == 1:
            return "singleton"
        return "increasing" if self.letters[1] > self.letters[0] else "decreasing"

    @property
    def first(self) -> int:
        return self.letters[0]

    @property
    def last(self) -> int:
        return self.letters[-1]

    def reversed(self) -> "RunWord":
        # the letters of a run read backwards are a run
        return RunWord._trusted(self.letters[::-1])

    def __len__(self) -> int:
        return len(self.letters)


class BinaryWord(Value):
    """A 0/1 word of length n-1 attached to tableaux of size n."""

    _fields = ("bits",)

    def __init__(self, bits: tuple[int, ...]) -> None:
        object.__setattr__(self, "bits", tuple(bits))
        if any(not isinstance(b, int) or b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits) + 1

    def one_runs(self) -> list[tuple[int, int]]:
        """Maximal blocks of 1s as (1-based start index, length) pairs."""
        runs = []
        i = 0
        while i < len(self.bits):
            if self.bits[i] == 1:
                j = i
                while j < len(self.bits) and self.bits[j] == 1:
                    j += 1
                runs.append((i + 1, j - i))
                i = j
            else:
                i += 1
        return runs

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)  # bool bits print as digits


class Heap(Value):
    """The order forced between consecutive letters in reduced words of a
    boolean permutation.

    A cover (x, y) means x appears before y in every reduced word; covers only
    relate consecutive integers, and each pair of consecutive elements has one,
    so the order is a fence on a path.
    """

    _fields = ("elements", "covers", "n")

    def __init__(self, elements: frozenset[int], covers: frozenset[tuple[int, int]], n: int):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "n", n)
        if not isinstance(n, int):
            raise ValueError(f"degree {n} is not an integer")
        for x, y in self.covers:
            if abs(x - y) != 1:
                raise ValueError(f"cover ({x}, {y}) does not relate consecutive letters")
            if x not in self.elements or y not in self.elements:
                raise ValueError(f"cover ({x}, {y}) outside the element set")
            if (y, x) in self.covers:
                raise ValueError(f"both orientations present for {{{x}, {y}}}")
        for e in self.elements:
            if not isinstance(e, int) or not 1 <= e <= self.n - 1:
                raise ValueError(f"element {e} out of range 1..{self.n - 1}")
        if self.n < 1:
            raise ValueError("degree must be at least 1")
        for e in sorted(self.elements):  # the least gap first
            if e + 1 in self.elements and not {(e, e + 1), (e + 1, e)} & self.covers:
                raise ValueError(f"elements {e} and {e + 1} have no cover")

    def precedes(self, x: int, y: int) -> bool:
        """True when x is forced before y (consecutive letters only)."""
        return (x, y) in self.covers


def evaluate(word: Word) -> Permutation:
    """The permutation equal to the product of the word's transpositions.

    >>> str(evaluate(Word((4, 2, 3, 2, 4, 1), 5)))
    '51342'
    """
    from .permutation import Permutation  # here, so bij calls load no permutation code

    entries = list(range(1, word.n + 1))
    for a in word.letters:
        entries[a - 1], entries[a] = entries[a], entries[a - 1]
    # swaps of 1..n at the word's letters, which lie in 1..n-1
    return Permutation._trusted(tuple(entries))


def is_reduced(word: Word) -> bool:
    """True when the word has minimum length among words for its permutation."""
    return len(word) == evaluate(word).length()


def run_decomposition(word: Word) -> tuple[RunWord, ...]:
    """Greedy left-to-right split into maximal runs.

    Since every suffix of a run is again a run, greedy maximal extension also
    achieves the minimum possible number of pieces.  A one-letter prefix
    extends in whichever direction the next letter permits.

    >>> [r.letters for r in run_decomposition(Word((2, 1, 8, 7, 3, 4, 5, 6), 9))]
    [(2, 1), (8, 7), (3, 4, 5, 6)]
    """
    letters = word.letters
    runs = []
    i = 0
    while i < len(letters):
        j = i + 1
        if j < len(letters) and abs(letters[j] - letters[i]) == 1:
            step = letters[j] - letters[i]
            j += 1
            while j < len(letters) and letters[j] - letters[j - 1] == step:
                j += 1
        runs.append(RunWord(letters[i:j]))
        i = j
    return tuple(runs)


def reduced_word_of(w: Permutation) -> Word:
    """One reduced word for w, found by repeatedly undoing the leftmost descent.

    Undoing the leftmost descent again and again is insertion sort: the
    leftmost descent always sits just left of the entry being inserted.  So
    one insertion-sort pass records the same swaps in O(n + l(w)).
    """
    entries = list(w.entries)
    swaps = []
    for j in range(1, len(entries)):
        v = entries[j]
        k = j
        while k and entries[k - 1] > v:
            entries[k] = entries[k - 1]
            swaps.append(k)
            k -= 1
        entries[k] = v
    # an insertion sort of n entries swaps at positions 1..n-1 only
    return Word._trusted(tuple(reversed(swaps)), w.n)


def heap_of(w: Permutation) -> Heap:
    """The heap of a boolean permutation, read off its entries in O(n).

    One boolean test rejects non-boolean input and returns the support, the
    heap's elements.  For support letters a and a+1, a comes before a+1
    exactly when w(a+1) > a+1: only the letters a and a+1 move the entry at
    position a+1, and the one applied last sets it; letter a brings an entry
    from below, letter a+1 one from above.
    """
    support = w._boolean_support()
    if support is None:
        raise NotBooleanError(*w.boolean_witness())
    entries = w.entries  # entries[a] is w(a+1)
    covers = {(a, a + 1) if entries[a] > a + 1 else (a + 1, a)
              for a in support if a + 1 in support}
    # support letters lie in 1..n-1, and each pair of consecutive ones gets one cover
    return Heap._trusted(support, frozenset(covers), w.n)


def linear_extensions(heap: Heap) -> Iterator[Word]:
    """All linear extensions of the heap, in lexicographic order of letters.

    For the heap of a boolean permutation these are exactly its reduced words.
    A depth-first search with an explicit stack: the placed elements are
    the stack, and ``available`` holds, in order, the unplaced elements whose
    lower covers are all placed.  Backtracking puts the last element back and
    tries the next available one above it, so no recursion depth grows with
    the heap.
    """
    above: dict[int, list[int]] = {e: [] for e in heap.elements}
    waiting = dict.fromkeys(heap.elements, 0)  # lower covers not yet placed
    for x, y in heap.covers:
        above[x].append(y)
        waiting[y] += 1
    available = sorted(e for e, count in waiting.items() if not count)
    sequence: list[int] = []
    k = 0  # index in ``available`` of the next element to try at this depth
    while True:
        if len(sequence) == len(waiting):
            # the heap's elements, which lie in 1..n-1
            yield Word._trusted(tuple(sequence), heap.n)
        if k < len(available):
            e = available.pop(k)
            sequence.append(e)
            for y in above[e]:
                waiting[y] -= 1
                if not waiting[y]:
                    insort(available, y)
            k = 0
            continue
        if not sequence:
            return
        e = sequence.pop()
        for y in above[e]:
            if not waiting[y]:
                available.remove(y)
            waiting[y] += 1
        k = bisect_left(available, e)
        available.insert(k, e)
        k += 1


def _word_moves(letters: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Words one commutation move or one braid move away."""
    for i in range(len(letters) - 1):
        a, b = letters[i], letters[i + 1]
        if abs(a - b) > 1:
            yield letters[:i] + (b, a) + letters[i + 2 :]
    for i in range(len(letters) - 2):
        a, b, c = letters[i], letters[i + 1], letters[i + 2]
        if a == c and abs(a - b) == 1:
            yield letters[:i] + (b, a, b) + letters[i + 3 :]


def all_reduced_words(w: Permutation) -> list[Word]:
    """Every reduced word for w, sorted lexicographically.

    Boolean permutations go through their heap; anything else is closed under
    commutation and braid moves starting from one reduced word.  Guarded to
    small degrees, since |R(w)| grows factorially.
    """
    if w.n > ENUMERATION_DEGREE_LIMIT:
        raise DegreeLimitError(
            f"degree {w.n} exceeds the enumeration limit {ENUMERATION_DEGREE_LIMIT}"
        )
    if w.is_boolean():
        return list(linear_extensions(heap_of(w)))
    start = reduced_word_of(w).letters
    seen = {start}
    frontier = [start]
    while frontier:
        for other in _word_moves(frontier.pop()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    # every move reuses letters already in the reduced word
    return [Word._trusted(letters, w.n) for letters in sorted(seen)]
