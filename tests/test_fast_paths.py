"""The fast boolean test, inversion count and reduced word against the slow
paths they replaced, plus a guard against a return to a cubic success path."""

import random
import time

import pytest

from boolrsk import (
    Heap,
    NotBooleanError,
    Word,
    all_permutations,
    evaluate,
    heap_of,
    reduced_word_of,
)

from oracles import (
    boolean_witness_by_patterns,
    length_pairwise,
    reduced_word_by_leftmost_descent,
)


def heap_from_word(letters, n):
    """The heap read off one reduced word with distinct letters."""
    position = {a: i for i, a in enumerate(letters)}
    covers = set()
    for a in position:
        if a + 1 in position:
            covers.add((a, a + 1) if position[a] < position[a + 1] else (a + 1, a))
    return Heap(frozenset(letters), frozenset(covers), n)


def boolean_from_shuffled_letters(rng, n, letters):
    letters = list(letters)
    rng.shuffle(letters)
    return evaluate(Word(tuple(letters), n))


def assert_matches_slow_paths(w, witness, check_rejection=True):
    """``witness`` is the slow path's boolean witness for w, computed once.

    ``check_rejection=False`` skips the witness search inside a rejecting
    ``heap_of``, which repeats the ``boolean_witness`` call already compared.
    """
    assert w.length() == length_pairwise(w.entries)
    assert w.is_boolean() == (witness is None)
    assert w.boolean_witness() == witness
    letters = reduced_word_by_leftmost_descent(w.entries)
    assert reduced_word_of(w) == Word(letters, w.n)
    if witness is None:
        assert heap_of(w) == heap_from_word(letters, w.n)
    elif check_rejection:
        with pytest.raises(NotBooleanError) as caught:
            heap_of(w)
        assert (caught.value.pattern, caught.value.positions) == witness


def test_exhaustive_small_groups():
    # S_8 checks heap_of on its boolean elements only, to keep the test short
    for n in range(1, 9):
        for w in all_permutations(n):
            assert_matches_slow_paths(w, boolean_witness_by_patterns(w.entries), n < 8)


def test_random_boolean_degrees_100_to_150():
    rng = random.Random(2207)
    for _ in range(2):
        n = rng.randint(100, 150)
        support = rng.sample(range(1, n), rng.randint(n // 2, n - 1))
        w = boolean_from_shuffled_letters(rng, n, support)
        witness = boolean_witness_by_patterns(w.entries)
        assert witness is None
        assert_matches_slow_paths(w, witness)


def test_random_3412_rejects_degrees_100_to_150():
    rng = random.Random(5119)
    for _ in range(2):
        n = rng.randint(100, 150)
        w = boolean_from_shuffled_letters(rng, n, range(1, n))
        ascents = [a for a in range(1, n) if w(a) < w(a + 1)]
        rng.shuffle(ascents)
        for a in ascents:
            longer = w.apply_word((a,), "right")
            witness = boolean_witness_by_patterns(longer.entries)
            if witness[0] == "3412":
                break
        else:
            pytest.fail("no lengthening letter keeps the product 321-avoiding")
        assert_matches_slow_paths(longer, witness)


def test_degree_2000_boolean_success_path_is_fast():
    rng = random.Random(2000)
    n = 2000
    w = boolean_from_shuffled_letters(rng, n, range(1, n))
    start = time.perf_counter()
    assert w.is_boolean()
    assert w.length() == n - 1
    assert len(heap_of(w).elements) == n - 1
    assert time.perf_counter() - start < 2.0
