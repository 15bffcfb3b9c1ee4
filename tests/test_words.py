"""Words, runs, reduced-word enumeration, commutation classes, and heaps."""

import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolrsk import (
    DegreeLimitError,
    Heap,
    NotBooleanError,
    Permutation,
    RunWord,
    Word,
    all_permutations,
    all_reduced_words,
    boolean_permutations,
    canonical_from_heap,
    evaluate,
    heap_of,
    identity,
    linear_extensions,
    run_decomposition,
)
from boolrsk.words import ENUMERATION_WORD_LIMIT

from oracles import (
    commutation_class_by_swaps,
    linear_extension_count,
    linear_extensions_brute,
    reduced_word_by_leftmost_descent,
    reduced_word_count,
    reduced_words_by_filtering,
    reduced_words_by_moves,
    word_moves,
)
from test_fast_paths import heap_from_word


def P(*values):
    return Permutation(tuple(values))


WORD_LIMIT = f"more than {ENUMERATION_WORD_LIMIT} reduced words, past the enumeration limit"


def run_capped(*args):
    """Python run on ``args`` in a child capped at 1 GiB of address space, so
    that an enumeration of all 1 100 742 656 reduced words of w0 of S_7 fails
    there within seconds instead of taking the host's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=cap)


class TestEvaluate:
    def test_51342(self):
        assert evaluate(Word((4, 2, 3, 2, 4, 1), 5)) == P(5, 1, 3, 4, 2)

    def test_empty(self):
        assert evaluate(Word((), 4)) == identity(4)

    def test_314569278(self):
        assert evaluate(Word((2, 1, 8, 7, 3, 4, 5, 6), 9)) == P(3, 1, 4, 5, 6, 9, 2, 7, 8)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError, match="letter"):
            Word((5,), 5)


class TestIsReduced:
    # a word is reduced when its length is the length of the permutation it evaluates to
    def test_reduced_word(self):
        word = Word((4, 2, 3, 2, 4, 1), 5)
        assert len(word) == evaluate(word).length()

    def test_repeated_letter_cancels(self):
        assert evaluate(Word((1, 1), 3)).length() == 0

    def test_distinct_letters(self):
        word = Word((2, 1, 8, 7, 3, 4, 5, 6), 9)
        assert len(word) == evaluate(word).length()


class TestRunDecomposition:
    def test_three_runs(self):
        runs = run_decomposition(Word((2, 1, 8, 7, 3, 4, 5, 6), 9))
        assert [r.letters for r in runs] == [(2, 1), (8, 7), (3, 4, 5, 6)]

    def test_five_runs_not_three(self):
        runs = run_decomposition(Word((8, 2, 7, 1, 3, 4, 5, 6), 9))
        assert len(runs) == 5

    def test_empty(self):
        assert run_decomposition(Word((), 3)) == ()

    def test_run_word_invariants(self):
        with pytest.raises(ValueError, match="run"):
            RunWord(())
        with pytest.raises(ValueError, match="run"):
            RunWord((2, 4))
        with pytest.raises(ValueError, match="run"):
            RunWord((2, 3, 2))
        assert RunWord((5,)).letters == (5,)

    @given(st.lists(st.integers(min_value=1, max_value=8), max_size=14))
    def test_roundtrip_and_maximality(self, letters):
        runs = run_decomposition(Word(tuple(letters), 9))
        flattened = [a for run in runs for a in run.letters]
        assert flattened == letters
        for left, right in zip(runs, runs[1:]):
            merged = left.letters + right.letters
            with pytest.raises(ValueError):
                RunWord(merged)

    def test_greedy_count_is_minimal(self):
        import itertools

        def is_run(piece):
            steps = {b - a for a, b in zip(piece, piece[1:])}
            return not steps or steps == {1} or steps == {-1}

        def minimum_pieces(letters):
            m = len(letters)
            best = m
            for mask in range(2 ** (m - 1)):
                cuts = [0] + [i + 1 for i in range(m - 1) if mask >> i & 1] + [m]
                pieces = [letters[a:b] for a, b in zip(cuts, cuts[1:])]
                if all(is_run(p) for p in pieces):
                    best = min(best, len(pieces))
            return best

        for length in range(1, 7):
            for letters in itertools.product(range(1, 5), repeat=length):
                greedy = len(run_decomposition(Word(letters, 5)))
                assert greedy == minimum_pieces(letters), letters


class TestReducedWordOf:
    def test_roundtrip(self):
        for w in all_permutations(5):
            word = Word(reduced_word_by_leftmost_descent(w.entries), w.n)
            assert evaluate(word) == w
            assert len(word) == w.length()


class TestAllReducedWords:
    def test_contains_known_word(self):
        words = {word.letters for word in all_reduced_words(P(5, 1, 3, 4, 2))}
        assert (4, 2, 3, 2, 4, 1) in words

    def test_identity(self):
        assert [word.letters for word in all_reduced_words(identity(4))] == [()]

    def test_longest_element_of_s3(self):
        words = {word.letters for word in all_reduced_words(P(3, 2, 1))}
        assert words == {(1, 2, 1), (2, 1, 2)}

    def test_against_filtering_oracle(self):
        for w in all_permutations(4):
            expected = reduced_words_by_filtering(w)
            assert {word.letters for word in all_reduced_words(w)} == expected

    def test_all_evaluate_and_closed_under_moves(self):
        for w in all_permutations(5):
            words = {word.letters for word in all_reduced_words(w)}
            for letters in words:
                assert evaluate(Word(letters, 5)) == w
                assert len(letters) == w.length()
                for moved in word_moves(letters):
                    assert moved in words

    def test_equals_the_sorted_move_closure(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                letters = [word.letters for word in all_reduced_words(w)]
                assert letters == sorted(reduced_words_by_moves(w)), w

    def test_sorted_lexicographically(self):
        words = [word.letters for word in all_reduced_words(P(3, 2, 1))]
        assert words == sorted(words)

    def test_counts_match_descent_recursion(self):
        # every word the walk yields is reduced for w (test above), and the
        # walk yields no word twice, so count equality with an independent
        # recursion proves it yields all of R(w).  The full degree-6 sweep
        # enumerates about 1.1 million words.
        for n in range(1, 7):
            for w in all_permutations(n):
                assert len(all_reduced_words(w)) == reduced_word_count(w.entries), w

    def test_degree_guard(self):
        with pytest.raises(DegreeLimitError):
            all_reduced_words(identity(10))

    def test_word_limit_stops_w0_of_s7_in_the_library(self):
        done = run_capped("-c", "from boolrsk import Permutation, all_reduced_words\n"
                          "all_reduced_words(Permutation((7, 6, 5, 4, 3, 2, 1)))")
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == f"boolrsk.errors.DegreeLimitError: {WORD_LIMIT}"

    def test_word_limit_stops_w0_of_s7_in_the_cli(self):
        done = run_capped("-m", "boolrsk.cli", "words", "7 6 5 4 3 2 1")
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {WORD_LIMIT}\n")


class TestCommutationClass:
    def test_boolean_class_is_all_reduced_words(self):
        for n in range(1, 7):
            for w in boolean_permutations(n):
                whole = {word.letters for word in all_reduced_words(w)}
                start = canonical_from_heap(heap_of(w)).word.letters
                assert commutation_class_by_swaps(start) == whole

    def test_one_class_exactly_when_fully_commutative(self):
        # a 321 in w allows a braid move, which leaves the commutation class
        for n in range(1, 6):
            for w in all_permutations(n):
                whole = {word.letters for word in all_reduced_words(w)}
                one_class = commutation_class_by_swaps(min(whole)) == whole
                assert one_class == w.is_fully_commutative(), w


class TestHeap:
    def test_cover_relations_of_314569278(self):
        heap = heap_of(P(3, 1, 4, 5, 6, 9, 2, 7, 8))
        assert heap.elements == frozenset(range(1, 9))
        assert heap.covers == frozenset(
            {(2, 1), (2, 3), (3, 4), (4, 5), (5, 6), (7, 6), (8, 7)}
        )

    def test_single_generator(self):
        heap = heap_of(P(2, 1))
        assert heap.elements == frozenset({1})
        assert heap.covers == frozenset()

    def test_disconnected_components(self):
        heap = heap_of(P(2, 3, 1, 5, 4, 8, 6, 9, 7, 11, 10))
        assert heap.elements == frozenset({1, 2, 4, 6, 7, 8, 10})
        assert heap.covers == frozenset({(1, 2), (7, 6), (7, 8)})

    def test_rejects_non_boolean(self):
        with pytest.raises(NotBooleanError):
            heap_of(P(3, 4, 1, 2))
        with pytest.raises(NotBooleanError):
            heap_of(P(3, 2, 1))

    def test_invalid_heap_construction(self):
        with pytest.raises(ValueError, match="consecutive"):
            Heap(frozenset({1, 3}), frozenset({(1, 3)}), 5)
        with pytest.raises(ValueError, match="orientation"):
            Heap(frozenset({1, 2}), frozenset({(1, 2), (2, 1)}), 5)

    def test_consecutive_elements_need_a_cover(self):
        # with no cover between 1 and 2 the words 12 and 21 evaluate differently
        with pytest.raises(ValueError, match="^elements 2 and 3 have no cover$"):
            Heap(frozenset({1, 2, 3, 4}), frozenset({(1, 2), (4, 3)}), 5)
        # every earlier check keeps its message
        with pytest.raises(ValueError, match="^element 2 out of range 1..1$"):
            Heap(frozenset({1, 2}), frozenset(), 2)
        with pytest.raises(ValueError, match="^degree 2.5 is not an integer$"):
            Heap(frozenset({1, 2}), frozenset(), 2.5)

    def test_orientation_agrees_with_every_reduced_word(self):
        for n in range(1, 8):
            for w in boolean_permutations(n):
                heap = heap_of(w)
                for word in all_reduced_words(w):
                    index = {a: i for i, a in enumerate(word.letters)}
                    for x, y in heap.covers:
                        assert index[x] < index[y]

    def test_orientation_is_read_off_the_entries(self):
        # heap_of applies the rule "a precedes a + 1 exactly when w(a + 1) > a + 1";
        # the oracle reads the order off a word found by undoing leftmost descents
        for n in range(1, 9):
            for w in boolean_permutations(n):
                word = reduced_word_by_leftmost_descent(w.entries)
                assert heap_of(w) == heap_from_word(word, n), w


class TestLinearExtensions:
    def test_known_words_appear(self):
        heap = heap_of(P(3, 1, 4, 5, 6, 9, 2, 7, 8))
        words = {word.letters for word in linear_extensions(heap)}
        assert (8, 7, 2, 1, 3, 4, 5, 6) in words
        assert (2, 1, 8, 7, 3, 4, 5, 6) in words

    def test_single_element(self):
        heap = heap_of(P(2, 1, 3))
        assert [word.letters for word in linear_extensions(heap)] == [(1,)]

    def test_lexicographic_order(self):
        heap = heap_of(P(3, 1, 4, 5, 6, 9, 2, 7, 8))
        letters = [word.letters for word in linear_extensions(heap)]
        assert letters == sorted(letters)
        assert len(letters) == len(set(letters))

    def test_reduced_and_counted(self):
        for n in range(1, 9):
            for w in boolean_permutations(n):
                heap = heap_of(w)
                count = 0
                for word in linear_extensions(heap):
                    assert len(word) == w.length()
                    assert evaluate(word) == w
                    count += 1
                assert count == linear_extension_count(heap.elements, heap.covers)

    def test_tiny_heaps_against_brute_filter(self):
        for n in range(1, 6):
            for w in boolean_permutations(n):
                heap = heap_of(w)
                expected = {
                    order for order in linear_extensions_brute(heap.elements, heap.covers)
                }
                assert {word.letters for word in linear_extensions(heap)} == expected
