"""Words in the adjacent-transposition generators, their runs, and heaps.

A word is a sequence of letters in 1..n-1; letter i names the transposition
swapping i and i+1.  All reduced words of a permutation come from one
depth-first walk over its left descents.  For a boolean permutation every
reduced word uses each support letter exactly once, so the relative order of
the letters i and i+1 is the same in all of them.  That order is recorded
here as a partial order (a "heap") on the support whose linear extensions
are exactly the reduced words.  The 0/1 words that encode uncrowded
tableaux (see ``uncrowded``) are kept here beside the other word types.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, repeat
from operator import sub

from ._value import Value
from .errors import DegreeLimitError, NotBooleanError, _in_range, _integer

ENUMERATION_DEGREE_LIMIT = 9
ENUMERATION_WORD_LIMIT = 300_000  # w0 of S_6 has 292 864 reduced words
_RUN_STEPS = (frozenset({1}), frozenset({-1}))  # the steps a run of two or more letters may take


class Word(Value):
    """A letter sequence with an ambient degree ``n``; letters lie in 1..n-1."""

    _fields = ("letters", "n")

    def __init__(self, letters: tuple[int, ...], n: int) -> None:
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "n", n)
        _integer(n, "degree")
        if n < 1:
            raise ValueError("degree must be at least 1")
        _in_range(self.letters, 1, n - 1, "letter")

    def __len__(self) -> int:
        return len(self.letters)


class RunWord(Value):
    """A nonempty run: consecutive integers stepping by +1 or by -1 throughout.

    >>> RunWord((3, 4, 5, 6)).reversed().letters
    (6, 5, 4, 3)
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
        object.__setattr__(self, "elements", frozenset(elements))
        object.__setattr__(self, "covers", frozenset(covers))
        object.__setattr__(self, "n", n)
        _integer(n, "degree")
        for x, y in self.covers:
            if abs(x - y) != 1:
                raise ValueError(f"cover ({x}, {y}) does not relate consecutive letters")
            if x not in self.elements or y not in self.elements:
                raise ValueError(f"cover ({x}, {y}) outside the element set")
            if (y, x) in self.covers:
                raise ValueError(f"both orientations present for {{{x}, {y}}}")
        _in_range(self.elements, 1, n - 1, "element")
        if self.n < 1:
            raise ValueError("degree must be at least 1")
        for e in sorted(self.elements):  # the least gap first
            if e + 1 in self.elements and not {(e, e + 1), (e + 1, e)} & self.covers:
                raise ValueError(f"elements {e} and {e + 1} have no cover")


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
    """All linear extensions of the heap, in lexicographic order of letters:
    the reduced words of the permutation that its canonical word evaluates to."""
    from .canonical import canonical_from_heap  # here: canonical imports this module

    return _reduced_words(evaluate(canonical_from_heap(heap).word))


def _reduced_words(w: Permutation) -> Iterator[Word]:
    """Every reduced word for w, once each, in lexicographic order.

    A reduced word starts with a exactly when the value a+1 sits left of the
    value a, and goes on with a reduced word of s_a·w, which swaps the two.
    The walk takes such letters least first over a ``position`` list, on an
    explicit stack, and swaps them back on the way up; no branch ends short
    of a word.  A child's scan starts at the smaller of a - 1 and the least
    letter taken at its parent's depth: s_a leaves the letters below both
    untakable.  Each step scans at most n letters.
    """
    n = w.n
    position = [0] * (n + 1)
    for i, v in enumerate(w.entries):
        position[v] = i
    letters: list[int] = []
    firsts: list[int] = []  # the least letter taken at each depth above this one
    a, first = 1, 0  # the next letter to try at this depth; the least one taken (0: none)
    while True:
        while a < n and position[a] < position[a + 1]:
            a += 1
        if a < n:
            first = first or a
            position[a], position[a + 1] = position[a + 1], position[a]
            letters.append(a)
            firsts.append(first)
            a, first = max(min(first, a - 1), 1), 0
            continue
        if not first:  # no letter to take: the walk has reached the identity
            # each letter a taken had a < n
            yield Word._trusted(tuple(letters), n)
        if not letters:
            return
        a, first = letters.pop(), firsts.pop()
        position[a], position[a + 1] = position[a + 1], position[a]
        a += 1


def all_reduced_words(w: Permutation) -> list[Word]:
    """Every reduced word for w, sorted lexicographically.

    Guarded by the degree and by the number of words, since |R(w)| grows
    factorially: the walk stops one word past ``ENUMERATION_WORD_LIMIT``.
    """
    if w.n > ENUMERATION_DEGREE_LIMIT:
        raise DegreeLimitError(
            f"degree {w.n} exceeds the enumeration limit {ENUMERATION_DEGREE_LIMIT}"
        )
    words = list(islice(_reduced_words(w), ENUMERATION_WORD_LIMIT + 1))
    if len(words) > ENUMERATION_WORD_LIMIT:
        raise DegreeLimitError(
            f"more than {ENUMERATION_WORD_LIMIT} reduced words, past the enumeration limit"
        )
    return words


def _walk(after: dict, length: int, ends: set) -> Iterator[list]:
    """Each path of ``length`` steps from state None, the empty path's, that ends in a state
    of ``ends``, in the order ``after[state]`` lists the (label, next state) steps out of a
    state; yielded as its labels after a leading None, in one list the next path overwrites."""
    labels, frames = [None] * (length + 1), [iter(((None, None),))]  # the empty path's step
    while frames:  # one iterator over the steps left at each depth of the path
        depth = len(frames) - 1
        for labels[depth], state in frames[-1]:
            if depth < length:
                frames.append(iter(after[state]))
                break
            if state in ends:
                yield labels
        else:  # every step out of the state above is taken
            frames.pop()
