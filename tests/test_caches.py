"""The two one-entry caches: ``permutation._least_lis`` keeps the last least
LIS and ``runstat._run_word`` the last optimal run word.  A caller asking for
one permutation's LIS, statistic, run word, Ulam moves and step takes one LIS
and one step loop between them, and gets what fresh calls would give."""

import sys

import pytest

from boolrsk import (
    Permutation,
    optimal_run_word,
    permutation,
    run_statistic,
    run_step,
    runstat,
    ulam_sort,
)

CACHES = (permutation._least_lis, runstat._run_word)
W1, W2 = Permutation((5, 1, 6, 4, 2, 7, 3, 8)), Permutation((2, 4, 1, 3))


@pytest.fixture(autouse=True)
def cold():
    for cache in CACHES:
        cache.cache_clear()


def count_calls(monkeypatch, owner, name):
    """Route ``owner.name`` through a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def results(w):
    lis = w.lex_least_lis()
    return lis, run_statistic(w), optimal_run_word(w), ulam_sort(w), run_step(w)


def test_ulam_sort_after_the_run_word_runs_no_second_step_loop(monkeypatch):
    steps = count_calls(monkeypatch, runstat, "run_step")
    runs = optimal_run_word(W1)
    moves = ulam_sort(W1)
    assert len(steps) == len(runs) == len(moves) == run_statistic(W1) == 4


def test_the_lis_the_statistic_and_a_step_take_one_lis(monkeypatch):
    # _least_lis builds one Subsequence per LIS it computes
    built = count_calls(monkeypatch, permutation, "Subsequence")
    lis = W1.lex_least_lis()
    assert run_statistic(W1) == W1.n - len(lis)
    step = run_step(W1)
    assert len(built) == 1
    assert len(step.result.lex_least_lis()) == len(lis) + 1
    assert len(built) == 2


def test_alternating_permutations_get_what_fresh_calls_give():
    fresh = {}
    for w in (W1, W2):
        for cache in CACHES:
            cache.cache_clear()
        fresh[w] = results(w)
    for w in (W1, W2, W1, W1, W2):
        assert results(w) == fresh[w]


def test_a_trusted_and_a_checked_permutation_share_results():
    first = results(Permutation._trusted(W1.entries))
    misses = [cache.cache_info().misses for cache in CACHES]
    # the checked twin is served what the trusted one cached, and it is right
    assert results(Permutation(list(W1.entries))) == first
    assert [cache.cache_info().misses for cache in CACHES] == misses


def test_the_replay_sweep_reaches_both_caches_behind_wrapped_public_functions(monkeypatch):
    # A tracer replaces the public functions with plain wrappers, which have no
    # cache_clear; the sweep over every loaded boolrsk module must still empty
    # both caches, as a fresh interpreter starts with them empty.
    results(W1)
    for name in ("optimal_run_word", "ulam_sort", "run_statistic", "run_step"):
        count_calls(monkeypatch, runstat, name)
    count_calls(monkeypatch, Permutation, "lex_least_lis")
    assert [cache.cache_info().currsize for cache in CACHES] == [1, 1]
    for name, module in list(sys.modules.items()):
        if name.startswith("boolrsk"):
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    assert [cache.cache_info().currsize for cache in CACHES] == [0, 0]
