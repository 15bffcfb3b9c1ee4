"""Permutation construction, statistics, patterns, and word actions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolrsk import Permutation, Word, all_permutations, boolean_permutations, evaluate, identity

from oracles import (
    boolean_permutations_by_filter,
    contains_pattern_naive,
    lis_length,
    reduced_word_by_leftmost_descent,
    times_letters,
)


def P(*values):
    return Permutation(tuple(values))


class TestConstruction:
    def test_from_one_line(self):
        w = Permutation([5, 1, 3, 4, 2])
        assert w.entries == (5, 1, 3, 4, 2)
        assert w.n == 5

    def test_identity_case(self):
        assert Permutation([1, 2, 3]) == identity(3)
        assert identity(3).is_identity()

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Permutation([2, 2, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            Permutation([0, 1])
        with pytest.raises(ValueError, match="range"):
            Permutation([1, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Permutation([])

    def test_display(self):
        assert str(P(5, 1, 3, 4, 2)) == "51342"
        assert str(P(3, 1, 4, 6, 2, 7, 10, 5, 8, 9)) == "314627(10)589"


class TestLength:
    def test_six_inversions(self):
        assert P(5, 1, 3, 4, 2).length() == 6

    def test_identity(self):
        assert identity(6).length() == 0

    def test_ten_inversions(self):
        assert P(5, 1, 6, 4, 2, 7, 3, 8).length() == 10

    def test_symmetric_under_inverse(self):
        for w in all_permutations(5):
            assert w.length() == w.inverse().length()


class TestInverse:
    def test_identity(self):
        assert identity(4).inverse() == identity(4)

    # expected values computed by the w * inverse(w) == identity oracle
    def test_51342(self):
        w = P(5, 1, 3, 4, 2)
        assert w.inverse() == P(2, 5, 3, 4, 1)
        assert w * w.inverse() == identity(5)

    def test_3142(self):
        w = P(3, 1, 4, 2)
        assert w.inverse() == P(2, 4, 1, 3)
        assert w * w.inverse() == identity(4)

    def test_roundtrip_everywhere(self):
        for w in all_permutations(5):
            assert w * w.inverse() == identity(5)
            assert w.inverse().inverse() == w


def contains(w, sigma):
    """Pattern containment by the search that ``boolean_witness`` runs for 3412."""
    return w._pattern_witness(sigma.entries) is not None


class TestPatterns:
    def test_contains_1423(self):
        assert contains(P(3, 1, 4, 5, 9, 2, 6, 8, 7), P(1, 4, 2, 3))

    def test_avoids_3241(self):
        assert not contains(P(3, 1, 4, 5, 9, 2, 6, 8, 7), P(3, 2, 4, 1))

    def test_identity_avoids_21(self):
        assert not contains(identity(6), P(2, 1))

    def test_contains_itself(self):
        for w in all_permutations(4):
            assert contains(w, w)

    def test_against_naive_oracle(self):
        patterns = [p for k in (2, 3, 4) for p in all_permutations(k)]
        for w in all_permutations(5):
            for sigma in patterns:
                assert contains(w, sigma) == contains_pattern_naive(
                    w.entries, sigma.entries
                )

    def test_monotone_under_pattern_containment(self):
        small = list(all_permutations(3))
        large = list(all_permutations(4))
        related = [
            (sigma, tau)
            for sigma in small
            for tau in large
            if contains(tau, sigma)
        ]
        for w in all_permutations(6):
            for sigma, tau in related:
                if contains(w, tau):
                    assert contains(w, sigma)


class TestBooleanPredicates:
    def test_3412_fully_commutative_not_boolean(self):
        w = P(3, 4, 1, 2)
        assert w.is_fully_commutative()
        assert not w.is_boolean()

    def test_321_neither(self):
        assert not P(3, 2, 1).is_fully_commutative()
        assert not P(3, 2, 1).is_boolean()

    def test_identity_both(self):
        assert identity(5).is_fully_commutative()
        assert identity(5).is_boolean()

    def test_314569278_boolean(self):
        assert P(3, 1, 4, 5, 6, 9, 2, 7, 8).is_boolean()

    def test_boolean_witness(self):
        assert P(3, 2, 1).boolean_witness() == ("321", (1, 2, 3))
        assert P(3, 4, 1, 2).boolean_witness() == ("3412", (1, 2, 3, 4))
        assert identity(3).boolean_witness() is None

    def test_fast_paths_match_generic_patterns(self):
        for w in all_permutations(5):
            has_321 = contains_pattern_naive(w.entries, (3, 2, 1))
            assert w.is_fully_commutative() == (not has_321)
            assert w.is_boolean() == (
                not has_321 and not contains_pattern_naive(w.entries, (3, 4, 1, 2))
            )

    def test_boolean_implies_fully_commutative(self):
        for n in range(1, 8):
            for w in all_permutations(n):
                if w.is_boolean():
                    assert w.is_fully_commutative()


class TestBooleanPermutations:
    def test_equals_the_filter_on_s1_to_s9(self):
        for n in range(1, 10):
            built = list(boolean_permutations(n))
            assert len(set(built)) == len(built)
            assert set(built) == set(boolean_permutations_by_filter(n)), n

    def test_lists_the_orientations_in_lexicographic_order_on_s1_to_s9(self):
        # letter a read as absent < 0 (a+1 absent) < +1 (a before a+1) < -1 (a after a+1)
        def orientation(w):
            support = w.support()
            return tuple(0 if a not in support else 1 if a + 1 not in support
                         else 2 if w(a + 1) > a + 1 else 3 for a in range(1, w.n))

        for n in range(1, 10):
            expected = sorted(boolean_permutations_by_filter(n), key=orientation)
            assert list(boolean_permutations(n)) == expected, n

    def test_counts_are_odd_fibonacci_numbers_up_to_degree_14(self):
        # S_n has F(2n-1) boolean elements (Tenner 2007)
        fibonacci = [0, 1]
        while len(fibonacci) < 28:
            fibonacci.append(fibonacci[-1] + fibonacci[-2])
        for n in range(1, 15):
            assert sum(1 for _ in boolean_permutations(n)) == fibonacci[2 * n - 1], n

    def test_the_first_of_s14_is_built_alone(self, monkeypatch):
        import boolrsk.canonical as canonical

        built = []
        build = canonical._canonical_from_orientation
        monkeypatch.setattr(
            canonical, "_canonical_from_orientation",
            lambda orient, n: built.append(tuple(orient)) or build(orient, n),
        )
        assert next(boolean_permutations(14)) == identity(14)
        assert built == [(None,) * 14]


class TestSupport:
    def test_51342(self):
        assert P(5, 1, 3, 4, 2).support() == frozenset({1, 2, 3, 4})

    def test_identity(self):
        assert identity(4).support() == frozenset()

    def test_full_support(self):
        assert P(3, 1, 4, 5, 6, 9, 2, 7, 8).support() == frozenset(range(1, 9))

    def test_matches_reduced_word_letters(self):
        for w in all_permutations(6):
            assert w.support() == frozenset(reduced_word_by_leftmost_descent(w.entries))


def apply_word(w, letters, side):
    """w * s on the right, s * w on the left, for the product s of the letters."""
    s = evaluate(Word(tuple(letters), w.n))
    return w * s if side == "right" else s * w


class TestApplyWord:
    def test_slide_to_front(self):
        assert apply_word(P(3, 4, 2, 5, 1, 6), (4, 3, 2, 1), "right") == P(1, 3, 4, 2, 5, 6)

    def test_left_product(self):
        assert apply_word(P(5, 1, 6, 4, 2, 7, 3, 8), (2, 3), "left") == P(5, 1, 6, 2, 3, 7, 4, 8)

    def test_empty_word(self):
        w = P(2, 1, 3)
        assert apply_word(w, (), "left") == w
        assert apply_word(w, (), "right") == w

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError, match="letter"):
            apply_word(P(2, 1), (2,), "right")

    @given(
        st.permutations(list(range(1, 7))),
        st.lists(st.integers(min_value=1, max_value=5), max_size=12),
        st.sampled_from(["left", "right"]),
    )
    def test_word_times_reverse_cancels(self, entries, letters, side):
        w = Permutation(tuple(entries))
        assert apply_word(apply_word(w, letters, side), letters[::-1], side) == w

    def test_word_times_reverse_cancels_exhaustively(self):
        # and the swap-by-swap oracle of the step tests agrees on every product
        for n in range(1, 6):
            probes = [(1,) * 3, tuple(range(1, n)), tuple(range(n - 1, 0, -1))]
            for w in all_permutations(n):
                for letters in probes + [reduced_word_by_leftmost_descent(w.entries)]:
                    if any(a > n - 1 for a in letters):
                        continue
                    for side in ("left", "right"):
                        product = apply_word(w, letters, side)
                        assert product == times_letters(w, letters, side)
                        assert apply_word(product, letters[::-1], side) == w


class TestLexLeastLis:
    def test_342516(self):
        assert P(3, 4, 2, 5, 1, 6).lex_least_lis().values == (3, 4, 5, 6)

    def test_51642738(self):
        assert P(5, 1, 6, 4, 2, 7, 3, 8).lex_least_lis().values == (1, 2, 3, 8)

    def test_identity(self):
        sub = identity(5).lex_least_lis()
        assert sub.values == (1, 2, 3, 4, 5)
        assert sub.positions == (1, 2, 3, 4, 5)

    def test_length_matches_patience_oracle(self):
        for n in range(1, 8):
            for w in all_permutations(n):
                assert len(w.lex_least_lis()) == lis_length(w.entries)

    def test_subsequence_consistency(self):
        for w in all_permutations(6):
            sub = w.lex_least_lis()
            assert list(sub.positions) == sorted(sub.positions)
            assert all(w(p) == v for p, v in zip(sub.positions, sub.values))
            assert list(sub.values) == sorted(sub.values)

    def test_lexicographically_least(self):
        # against brute force over all longest increasing subsequences
        import itertools

        for w in all_permutations(6):
            target = len(w.lex_least_lis())
            best = min(
                values
                for k in [target]
                for positions in itertools.combinations(range(1, 7), k)
                for values in [tuple(w(p) for p in positions)]
                if list(values) == sorted(values)
            )
            assert w.lex_least_lis().values == best
