"""The step map, run statistic, optimal run words, and Ulam sorting."""

import random
import tracemalloc

import pytest

from boolrsk import (
    DegreeLimitError,
    DomainError,
    Permutation,
    RunWord,
    UlamMove,
    Word,
    all_permutations,
    apply_ulam_move,
    evaluate,
    identity,
    is_reduced,
    optimal_run_word,
    run_decomposition,
    run_statistic,
    run_step,
    ulam_sort,
)
from boolrsk.acceptance import brute_force_run
from boolrsk.commands import ulam as ulam_command
from boolrsk.runstat import (
    CASE_LEFT_OF_PREDECESSOR,
    CASE_MISSING_ONE,
    CASE_RIGHT_OF_PREDECESSOR,
    _moves_from_runs,
)


def P(*values):
    return Permutation(tuple(values))


class TestRunStep:
    def test_missing_one_case(self):
        step = run_step(P(3, 4, 2, 5, 1, 6))
        assert step.result == P(1, 3, 4, 2, 5, 6)
        assert step.run.letters == (4, 3, 2, 1)
        assert step.side == "right"
        assert step.case == CASE_MISSING_ONE

    def test_right_of_predecessor_case(self):
        step = run_step(P(1, 4, 2, 5, 6, 3))
        assert step.result == P(1, 4, 2, 3, 5, 6)
        assert step.run.letters == (5, 4)
        assert step.side == "right"
        assert step.case == CASE_RIGHT_OF_PREDECESSOR

    def test_left_of_predecessor_case(self):
        step = run_step(P(5, 1, 6, 4, 2, 7, 3, 8))
        assert step.result == P(5, 1, 6, 2, 3, 7, 4, 8)
        assert step.run.letters == (2, 3)
        assert step.side == "left"
        assert step.case == CASE_LEFT_OF_PREDECESSOR

    def test_identity_rejected(self):
        with pytest.raises(DomainError, match="identity"):
            run_step(identity(4))

    def test_step_shortens_by_run_length(self):
        for n in range(2, 8):
            for w in all_permutations(n):
                if w.is_identity():
                    continue
                step = run_step(w)
                assert step.result.length() + len(step.run) == w.length()

    def test_step_lengthens_lis_by_exactly_one(self):
        for n in range(2, 8):
            for w in all_permutations(n):
                if w.is_identity():
                    continue
                step = run_step(w)
                assert len(step.result.lex_least_lis()) == len(w.lex_least_lis()) + 1

    def test_step_adds_the_least_missing_value_to_the_least_lis(self):
        # the library does not rely on this: it is the lemma a flat-array step loop would use
        for n in range(2, 8):
            for w in all_permutations(n):
                if w.is_identity():
                    continue
                before = set(w.lex_least_lis().values)
                q = min(set(range(1, n + 1)) - before)
                assert set(run_step(w).result.lex_least_lis().values) == before | {q}, w

    def test_run_bound_under_step(self):
        for n in range(2, 8):
            for w in all_permutations(n):
                if w.is_identity():
                    continue
                assert run_statistic(w) <= run_statistic(run_step(w).result) + 1

    def test_orbit_reaches_identity_in_run_steps(self):
        for n in range(1, 8):
            for w in all_permutations(n):
                steps = 0
                u = w
                while not u.is_identity():
                    u = run_step(u).result
                    steps += 1
                assert steps == run_statistic(w)


class TestRunStatistic:
    def test_345619278(self):
        assert run_statistic(P(3, 4, 5, 6, 1, 9, 2, 7, 8)) == 3

    def test_51642738(self):
        assert run_statistic(P(5, 1, 6, 4, 2, 7, 3, 8)) == 4

    def test_identity(self):
        assert run_statistic(identity(5)) == 0


class TestOptimalRunWord:
    def test_51642738_exact_word(self):
        runs = optimal_run_word(P(5, 1, 6, 4, 2, 7, 3, 8))
        assert [r.letters for r in runs] == [(3, 2), (4, 3, 2, 1), (5, 4, 3), (6,)]

    def test_identity_empty(self):
        assert optimal_run_word(identity(3)) == ()

    def test_345619278_three_runs(self):
        w = P(3, 4, 5, 6, 1, 9, 2, 7, 8)
        runs = optimal_run_word(w)
        assert len(runs) == 3
        letters = tuple(a for run in runs for a in run.letters)
        assert evaluate(Word(letters, 9)) == w

    def test_known_optimal_run_words_of_51642738(self):
        # three four-run reduced words for the same permutation
        w = P(5, 1, 6, 4, 2, 7, 3, 8)
        for letters, pieces in [
            ((3, 2, 4, 5, 6, 3, 2, 1, 4, 3), 4),
            ((3, 2, 4, 3, 2, 1, 5, 6, 4, 3), 4),
            ((3, 2, 4, 3, 2, 1, 5, 4, 3, 6), 4),
        ]:
            word = Word(letters, 8)
            assert evaluate(word) == w
            assert is_reduced(word)
            assert len(run_decomposition(word)) == pieces == run_statistic(w)

    def test_three_run_words_of_314569278(self):
        w = P(3, 1, 4, 5, 6, 9, 2, 7, 8)
        for letters in [(2, 1, 8, 7, 3, 4, 5, 6), (8, 7, 2, 1, 3, 4, 5, 6)]:
            word = Word(letters, 9)
            assert evaluate(word) == w
            assert len(run_decomposition(word)) == 3 == run_statistic(w)

    def test_concatenation_reduced_with_optimal_count(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                runs = optimal_run_word(w)
                assert len(runs) == run_statistic(w)
                word = Word(tuple(a for run in runs for a in run.letters), n)
                assert is_reduced(word)
                assert evaluate(word) == w

    def test_peak_memory_stays_near_the_returned_runs(self):
        # each step's permutation is dropped once its run is filed, so the peak
        # stays near the runs returned instead of growing as run(w) * n
        entries = list(range(1, 1001))
        random.Random(1000).shuffle(entries)
        w = Permutation(tuple(entries))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            runs = optimal_run_word(w)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(runs) == run_statistic(w)
        assert peak - base < 1.5 * (held - base)


class TestUlamSort:
    def test_51642738_moves_and_states(self):
        w = P(5, 1, 6, 4, 2, 7, 3, 8)
        moves = ulam_sort(w)
        assert moves == (
            UlamMove(6, 3),
            UlamMove(3, 3),
            UlamMove(1, 3),
            UlamMove(2, 3),
        )
        states = []
        u = w
        for move in moves:
            u = apply_ulam_move(u, move)
            states.append(str(u))
        assert states == ["51642378", "51423678", "14235678", "12345678"]

    def test_identity_empty(self):
        assert ulam_sort(identity(4)) == ()

    def test_front_insertion(self):
        w = P(2, 3, 1)
        moves = ulam_sort(w)
        u = w
        for move in moves:
            u = apply_ulam_move(u, move)
        assert u.is_identity()

    def test_sorts_everything_in_optimal_moves(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                moves = ulam_sort(w)
                assert len(moves) == run_statistic(w)
                u = w
                for move in moves:
                    u = apply_ulam_move(u, move)
                assert u.is_identity()

    def test_states_are_the_replayed_moves(self):
        # the states the ulam command prints, against the moves replayed one by one
        for n in range(1, 7):
            for w in all_permutations(n):
                moves = tuple(_moves_from_runs(w, optimal_run_word(w)))
                assert moves == ulam_sort(w)
                result, _ = ulam_command.run(w)
                assert result["moves"] == [
                    {"pos": m.from_position, "after": m.insert_after_value} for m in moves
                ]
                assert len(result["states"]) == len(moves)
                u = w
                for move, state in zip(moves, result["states"]):
                    u = apply_ulam_move(u, move)
                    assert state == list(u.entries)


class TestBruteForceRun:
    def test_matches_statistic_on_51342(self):
        w = P(5, 1, 3, 4, 2)
        assert brute_force_run(w) == run_statistic(w)

    def test_identity(self):
        assert brute_force_run(identity(4)) == 0

    def test_longest_element_of_s3(self):
        assert brute_force_run(P(3, 2, 1)) == 2
        assert run_statistic(P(3, 2, 1)) == 2

    def test_degree_guard(self):
        with pytest.raises(DegreeLimitError):
            brute_force_run(identity(7))

    def test_oracle_equivalence_small(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                assert brute_force_run(w) == run_statistic(w)
