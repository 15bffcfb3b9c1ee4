"""The README's contract for malformed arguments, over every public name.

Each function and value type in ``boolrsk.__all__``, and each argument-taking
method of ``Permutation`` and ``Heap``, is called on drawn arguments: valid
ones of degree at most 12, integers one past either end, ``bool``, floats,
strings, ``None``, lists and sets where tuples and frozensets go, and plain
tuples where a value type goes.  A call either returns, and then every value
it returns is hashable, or it raises ``ValueError`` (``DomainError`` and
``ParseError`` included), ``TypeError`` or ``AttributeError``; and it ends
within ``SECONDS``.  An iterator is read to a prefix of ``PREFIX`` values and a
returned list is checked item by item.
"""

import operator
import signal
from collections.abc import Iterator
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boolrsk
from boolrsk import (
    BinaryWord, CanonicalWord, Heap, Permutation, RunStep, RunWord, Shape, StandardTableau,
    Subsequence, UlamMove, UncrowdedCounts, Word, canonical_from_heap, evaluate, heap_of, rsk)

MAX_DEGREE = 12
PREFIX = 50
SECONDS = 5  # a call still running after this long counts as a hang

junk = st.booleans() | st.floats(-2, MAX_DEGREE + 2) | st.text(max_size=2) | st.none()
integers = st.integers(-1, MAX_DEGREE + 1) | junk
# a tuple of integers or of tuples of them, where a value type goes
plain = st.lists(integers | st.lists(integers, max_size=3).map(tuple), max_size=8).map(tuple)
CONTAINERS = (tuple, list, set, frozenset)


def rewrapped(items):
    """``items`` (hashable) in a tuple, or in a list or set standing in for one."""
    return st.sampled_from(CONTAINERS).map(lambda container: container(items))


def sequences(elements, max_size=MAX_DEGREE):
    return st.lists(elements, max_size=max_size).flatmap(rewrapped)


@st.composite
def words(draw, distinct=False, max_degree=MAX_DEGREE):
    n = draw(st.integers(1, max_degree))
    letters = st.lists(st.integers(1, max(n - 1, 1)), max_size=2 * (n - 1), unique=distinct)
    return Word(tuple(draw(letters)), n)


@st.composite
def permutations(draw, max_degree=MAX_DEGREE):
    n = draw(st.integers(1, max_degree))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def run_words(draw):
    a = draw(st.integers(1, MAX_DEGREE - 1))
    b = draw(st.integers(1, MAX_DEGREE - 1))
    return RunWord(range(a, b + 1) if a <= b else range(a, b - 1, -1))


def value(valid):
    """A valid value, a plain tuple in its place, or junk."""
    return valid | plain | junk


boolean_perms = words(distinct=True).map(evaluate)  # distinct letters make a boolean permutation
heaps = boolean_perms.map(heap_of)
canonicals = heaps.map(canonical_from_heap)
tableaux = permutations().map(lambda w: rsk(w)[0])
binary_words = st.lists(st.integers(0, 1), max_size=MAX_DEGREE - 1).map(BinaryWord)
perm = value(permutations() | boolean_perms)
word = value(words() | words(distinct=True))
heap = value(heaps)
canonical = value(canonicals)
tableau = value(tableaux)
integer_set = sequences(integers) | junk


@st.composite
def heap_fields(draw):
    """The fields of a valid heap, its two sets each in any of the containers."""
    h = draw(heaps)
    return draw(rewrapped(h.elements)), draw(rewrapped(h.covers)), h.n


# public name -> (the callable, a strategy for its argument tuple)
CALLS = {
    # value types: their fields, valid or not, and valid fields in other containers
    "Permutation": (Permutation, st.tuples(
        sequences(integers) | permutations().map(lambda w: list(w.entries)))),
    "Subsequence": (Subsequence, st.tuples(sequences(integers), sequences(integers))),
    "Word": (Word, st.tuples(sequences(integers), integers)
             | words().map(lambda w: (list(w.letters), w.n))),
    "RunWord": (RunWord, st.tuples(sequences(integers)) | run_words().map(lambda r: (r.letters,))),
    "BinaryWord": (BinaryWord, st.tuples(sequences(st.integers(0, 1) | integers))),
    "Heap": (Heap, st.tuples(sequences(integers), sequences(st.tuples(integers, integers)), integers)
             | heap_fields()),
    "Shape": (Shape, st.tuples(sequences(integers))),
    "StandardTableau": (StandardTableau, st.tuples(
        st.lists(st.lists(integers, max_size=4).flatmap(rewrapped), max_size=4)
        | tableaux.map(lambda t: [list(row) for row in t.rows]))),
    "CanonicalWord": (CanonicalWord, st.tuples(
        sequences(value(run_words()), 4), sequences(value(run_words()), 4), integers)
        | canonicals.map(lambda c: (list(c.dec_runs), list(c.inc_runs), c.n))),
    "RunStep": (RunStep, st.tuples(perm, value(run_words()), integers, integers)),
    "UlamMove": (UlamMove, st.tuples(integers, integers)),
    "UncrowdedCounts": (UncrowdedCounts, st.tuples(integers, integers, integers)),
    # functions
    "all_permutations": (boolrsk.all_permutations, st.tuples(integers)),
    "boolean_permutations": (boolrsk.boolean_permutations, st.tuples(integers)),
    "identity": (boolrsk.identity, st.tuples(integers)),
    "canonical_from_heap": (boolrsk.canonical_from_heap, st.tuples(heap)),
    "canonical_from_word": (boolrsk.canonical_from_word, st.tuples(word)),
    "leftmost_letters": (boolrsk.leftmost_letters, st.tuples(canonical)),
    "rightmost_letters": (boolrsk.rightmost_letters, st.tuples(canonical)),
    "row2_from_canonical": (boolrsk.row2_from_canonical, st.tuples(canonical)),
    "rsk": (boolrsk.rsk, st.tuples(perm)),
    "shape_of": (boolrsk.shape_of, st.tuples(perm)),
    "apply_ulam_move": (boolrsk.apply_ulam_move, st.tuples(perm, value(
        st.builds(UlamMove, integers, integers)))),
    "optimal_run_word": (boolrsk.optimal_run_word, st.tuples(perm)),
    "run_statistic": (boolrsk.run_statistic, st.tuples(perm)),
    "run_step": (boolrsk.run_step, st.tuples(perm)),
    "ulam_sort": (boolrsk.ulam_sort, st.tuples(perm)),
    "binary_word_from_tableau": (boolrsk.binary_word_from_tableau, st.tuples(tableau)),
    "count_uncrowded": (boolrsk.count_uncrowded, st.tuples(integers)),
    "count_uncrowded_range": (boolrsk.count_uncrowded_range, st.tuples(integers, integers)),
    "crowding_witness": (boolrsk.crowding_witness, st.tuples(integer_set)),
    "is_feasible_second_row": (boolrsk.is_feasible_second_row, st.tuples(integer_set)),
    "is_uncrowded": (boolrsk.is_uncrowded, st.tuples(integer_set)),
    "is_uncrowded_tableau": (boolrsk.is_uncrowded_tableau, st.tuples(tableau)),
    "odd_run_words": (boolrsk.odd_run_words, st.tuples(integers)),
    "realize_leftmost_letters": (boolrsk.realize_leftmost_letters,
                                 st.tuples(integer_set, integers)),
    "tableau_from_binary_word": (boolrsk.tableau_from_binary_word, st.tuples(value(binary_words))),
    # the enumeration's cost grows with the number of words, so valid input stays at degree 5;
    # degrees past the enumeration limit are drawn as identities
    "all_reduced_words": (boolrsk.all_reduced_words, st.tuples(value(
        permutations(max_degree=5) | st.integers(9, MAX_DEGREE).map(boolrsk.identity)))),
    "evaluate": (boolrsk.evaluate, st.tuples(word)),
    "heap_of": (boolrsk.heap_of, st.tuples(perm)),
    "linear_extensions": (boolrsk.linear_extensions, st.tuples(heap)),
    "run_decomposition": (boolrsk.run_decomposition, st.tuples(word)),
    # methods that take arguments
    "Permutation.__call__": (lambda w, i: w(i), st.tuples(permutations(), integers)),
    "Permutation.__mul__": (operator.mul, st.tuples(permutations(), perm)),
}


class Hang(Exception):
    pass


def _hang(signum, frame):
    raise Hang(f"a call ran past {SECONDS} s")


def returned_values(function, args):
    """What the call returns, as a list of values, with the alarm set for its run."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        result = function(*args)
        if isinstance(result, Iterator):
            return list(islice(result, PREFIX))
        return result if isinstance(result, list) else [result]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_public_callable_has_a_row():
    public = {name for name in boolrsk.__all__ if name not in boolrsk._SUBMODULES}
    errors = {name for name in public if name.endswith("Error")}
    assert {name for name in CALLS if "." not in name} == public - errors


@pytest.mark.parametrize("name", CALLS)
def test_a_call_returns_hashable_values_or_raises_a_contract_error(name):
    function, arguments = CALLS[name]

    @settings(derandomize=True, max_examples=40, database=None)
    @given(arguments)
    def check(args):
        try:
            values = returned_values(function, args)
        except (ValueError, TypeError, AttributeError):
            return
        for v in values:
            hash(v)

    check()
