"""Words, runs, reduced-word enumeration, commutation classes, and heaps."""

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
    evaluate,
    heap_of,
    identity,
    is_reduced,
    linear_extensions,
    reduced_word_of,
    run_decomposition,
)

from oracles import (
    commutation_class_by_swaps,
    linear_extension_count,
    linear_extensions_brute,
    reduced_word_by_leftmost_descent,
    reduced_word_count,
    reduced_words_by_filtering,
)
from test_fast_paths import heap_from_word


def P(*values):
    return Permutation(tuple(values))


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
    def test_reduced_word(self):
        assert is_reduced(Word((4, 2, 3, 2, 4, 1), 5))

    def test_repeated_letter_cancels(self):
        assert not is_reduced(Word((1, 1), 3))

    def test_distinct_letters(self):
        assert is_reduced(Word((2, 1, 8, 7, 3, 4, 5, 6), 9))


class TestRunDecomposition:
    def test_three_runs(self):
        runs = run_decomposition(Word((2, 1, 8, 7, 3, 4, 5, 6), 9))
        assert [r.letters for r in runs] == [(2, 1), (8, 7), (3, 4, 5, 6)]
        assert [r.direction for r in runs] == ["decreasing", "decreasing", "increasing"]

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
        assert RunWord((5,)).direction == "singleton"

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
            word = reduced_word_of(w)
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
        from boolrsk.words import _word_moves

        for w in all_permutations(5):
            words = {word.letters for word in all_reduced_words(w)}
            for letters in words:
                assert evaluate(Word(letters, 5)) == w
                assert len(letters) == w.length()
                for moved in _word_moves(letters):
                    assert moved in words

    def test_sorted_lexicographically(self):
        words = [word.letters for word in all_reduced_words(P(3, 2, 1))]
        assert words == sorted(words)

    def test_counts_match_descent_recursion(self):
        # moves preserve evaluation and length, so the closure sits inside
        # R(w); count equality with an independent recursion proves it is all
        # of R(w).  The full degree-6 sweep enumerates about 1.1 million words.
        for n in range(1, 7):
            for w in all_permutations(n):
                assert len(all_reduced_words(w)) == reduced_word_count(w.entries), w

    def test_degree_guard(self):
        with pytest.raises(DegreeLimitError):
            all_reduced_words(identity(10))


class TestCommutationClass:
    def test_boolean_class_is_all_reduced_words(self):
        for n in range(1, 7):
            for w in boolean_permutations(n):
                whole = {word.letters for word in all_reduced_words(w)}
                assert commutation_class_by_swaps(reduced_word_of(w).letters) == whole

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
                    assert is_reduced(word)
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
