"""Canonical reduced words: both constructions and their run structure."""

from collections import Counter

import pytest

from boolrsk import (
    CanonicalWord,
    DomainError,
    NotBooleanError,
    Permutation,
    RunWord,
    Word,
    boolean_permutations,
    canonical_from_heap,
    canonical_from_word,
    evaluate,
    heap_of,
    leftmost_letters,
    linear_extensions,
    rightmost_letters,
    run_decomposition,
    run_statistic,
)


def P(*values):
    return Permutation(tuple(values))


def runs_of(canonical):
    return [run.letters for run in canonical.runs]


class TestHeapConstruction:
    def test_full_support_example(self):
        canonical = canonical_from_heap(heap_of(P(3, 1, 4, 6, 2, 7, 10, 5, 8, 9)))
        assert [r.letters for r in canonical.dec_runs] == [(2, 1), (9, 8)]
        assert [r.letters for r in canonical.inc_runs] == [(5, 6, 7), (3, 4)]

    def test_disconnected_example(self):
        canonical = canonical_from_heap(heap_of(P(2, 3, 1, 5, 4, 8, 6, 9, 7, 11, 10)))
        assert [r.letters for r in canonical.dec_runs] == [(4,), (7, 6), (8,), (10,)]
        assert [r.letters for r in canonical.inc_runs] == [(1, 2)]

    def test_identity_is_empty(self):
        canonical = canonical_from_heap(heap_of(P(1, 2, 3)))
        assert canonical.runs == ()
        assert canonical.letters == ()


class TestWordConstruction:
    def test_full_support_example(self):
        canonical = canonical_from_word(Word((2, 5, 9, 1, 3, 6, 8, 4, 7), 10))
        assert runs_of(canonical) == [(2, 1), (9, 8), (5, 6, 7), (3, 4)]

    def test_disconnected_example(self):
        canonical = canonical_from_word(Word((4, 7, 1, 10, 2, 6, 8), 11))
        assert runs_of(canonical) == [(4,), (7, 6), (8,), (10,), (1, 2)]

    def test_single_letter(self):
        canonical = canonical_from_word(Word((3,), 5))
        assert [r.letters for r in canonical.dec_runs] == [(3,)]
        assert canonical.inc_runs == ()

    def test_rejects_non_reduced(self):
        with pytest.raises(DomainError, match="reduced"):
            canonical_from_word(Word((1, 1), 3))

    def test_rejects_non_boolean(self):
        with pytest.raises(NotBooleanError):
            canonical_from_word(Word((1, 2, 1), 3))


class TestRunLetterSets:
    def test_leftmost_full_support(self):
        canonical = canonical_from_word(Word((2, 5, 9, 1, 3, 6, 8, 4, 7), 10))
        assert leftmost_letters(canonical) == frozenset({2, 9, 5, 3})
        assert rightmost_letters(canonical) == frozenset({1, 8, 7, 4})

    def test_leftmost_disconnected(self):
        canonical = canonical_from_word(Word((4, 7, 1, 10, 2, 6, 8), 11))
        assert leftmost_letters(canonical) == frozenset({4, 7, 8, 10, 1})
        assert rightmost_letters(canonical) == frozenset({4, 6, 8, 10, 2})

    def test_empty(self):
        canonical = canonical_from_heap(heap_of(P(1, 2)))
        assert leftmost_letters(canonical) == frozenset()
        assert rightmost_letters(canonical) == frozenset()


class TestStructuralInvariants:
    def test_validation_rejects_misplaced_runs(self):
        with pytest.raises(ValueError, match="increasing run"):
            CanonicalWord((RunWord((1, 2)),), (), 4)
        with pytest.raises(ValueError, match="ascend"):
            CanonicalWord((), (RunWord((2, 1)),), 4)
        with pytest.raises(ValueError, match="ascend"):
            CanonicalWord((), (RunWord((2,)),), 4)
        with pytest.raises(ValueError, match="repeated"):
            CanonicalWord((RunWord((1,)), RunWord((1,))), (), 4)
        with pytest.raises(ValueError, match="ordered"):
            CanonicalWord((RunWord((3,)), RunWord((1,))), (), 5)

    def test_assembled_word_is_reduced_and_evaluates_back(self):
        for n in range(1, 11):
            for w in boolean_permutations(n):
                canonical = canonical_from_heap(heap_of(w))
                assert len(canonical.word) == evaluate(canonical.word).length()
                assert evaluate(canonical.word) == w

    def test_run_count_is_optimal(self):
        for n in range(1, 11):
            for w in boolean_permutations(n):
                canonical = canonical_from_heap(heap_of(w))
                assert len(canonical.runs) == run_statistic(w)
                assert len(canonical.runs) == n - len(w.lex_least_lis())

    def test_both_constructions_agree_on_every_word(self):
        for n in range(1, 7):
            for w in boolean_permutations(n):
                heap = heap_of(w)
                expected = canonical_from_heap(heap)
                for word in linear_extensions(heap):
                    assert canonical_from_word(word) == expected

    def test_fixed_point_of_word_construction(self):
        for n in range(1, 11):
            for w in boolean_permutations(n):
                canonical = canonical_from_heap(heap_of(w))
                assert canonical_from_word(canonical.word) == canonical

    def test_inverse_reverses_runs_as_multisets(self):
        for n in range(1, 11):
            for w in boolean_permutations(n):
                ours = canonical_from_heap(heap_of(w))
                theirs = canonical_from_heap(heap_of(w.inverse()))
                reversed_runs = Counter(run.letters[::-1] for run in ours.runs)
                assert Counter(run.letters for run in theirs.runs) == reversed_runs

    def test_greedy_redecomposition_observation(self):
        # the stored partition is authoritative; greedy re-decomposition of the
        # flat word is not asserted equal, only observed (and round-tripped)
        divergences = 0
        for n in range(1, 11):
            for w in boolean_permutations(n):
                canonical = canonical_from_heap(heap_of(w))
                greedy = run_decomposition(canonical.word)
                flat = tuple(a for run in greedy for a in run.letters)
                assert flat == canonical.letters
                if [r.letters for r in greedy] != runs_of(canonical):
                    divergences += 1
        if divergences:
            print(f"note: greedy re-decomposition diverged {divergences} times")
