"""Row insertion, shapes, and second rows read off canonical words."""

import pytest

from boolrsk import (
    Permutation,
    Shape,
    StandardTableau,
    Word,
    all_permutations,
    boolean_permutations,
    canonical_from_heap,
    canonical_from_word,
    heap_of,
    identity,
    row2_from_canonical,
    rsk,
    shape_of,
)

from oracles import lds_length, lis_length


def P(*values):
    return Permutation(tuple(values))


def T(*rows):
    return StandardTableau(tuple(tuple(row) for row in rows))


class TestTableauValidation:
    def test_rows_must_increase(self):
        with pytest.raises(ValueError, match="row"):
            T([2, 1], [3, 4])

    def test_columns_must_increase(self):
        with pytest.raises(ValueError, match="column"):
            T([3, 4], [1, 2])

    def test_lengths_weakly_decrease(self):
        with pytest.raises(ValueError, match="lengths"):
            T([1, 2], [3, 4, 5])

    def test_entries_distinct_and_positive(self):
        with pytest.raises(ValueError, match="distinct"):
            T([1, 2], [2, 3])
        with pytest.raises(ValueError, match="positive"):
            T([0, 1])

    def test_contiguous_content(self):
        assert T([1, 2, 3]).has_contiguous_content()
        assert not T([1, 2, 4]).has_contiguous_content()
        for w in all_permutations(4):
            p, q = rsk(w)
            assert p.has_contiguous_content()
            assert q.has_contiguous_content()

    def test_row2_of_single_row(self):
        assert T([1, 2, 3]).row2 == ()


class TestShape:
    def test_weakly_decreasing_enforced(self):
        with pytest.raises(ValueError, match="decreasing"):
            Shape((2, 3))

    def test_conjugate(self):
        # reversing w transposes its shape (Schensted)
        for w in all_permutations(6):
            parts = shape_of(w).parts
            conjugate = tuple(sum(1 for p in parts if p > k) for k in range(parts[0]))
            assert shape_of(Permutation(w.entries[::-1])).parts == conjugate, w


class TestInsertion:
    def test_two_row_example(self):
        p, q = rsk(P(3, 1, 4, 6, 2, 7, 10, 5, 8, 9))
        assert p == T([1, 2, 5, 7, 8, 9], [3, 4, 6, 10])
        assert q == T([1, 3, 4, 6, 7, 10], [2, 5, 8, 9])

    def test_identity(self):
        p, q = rsk(identity(5))
        assert p == q == T([1, 2, 3, 4, 5])

    def test_3412(self):
        p, _ = rsk(P(3, 4, 1, 2))
        assert p == T([1, 2], [3, 4])

    def test_3142_same_insertion_tableau(self):
        p, _ = rsk(P(3, 1, 4, 2))
        assert p == T([1, 2], [3, 4])

    def test_shapes_agree(self):
        for w in all_permutations(5):
            p, q = rsk(w)
            assert p.shape() == q.shape() == shape_of(w)


class TestShapeOf:
    def test_two_row_boolean(self):
        assert shape_of(P(3, 1, 4, 6, 2, 7, 10, 5, 8, 9)) == Shape((6, 4))

    def test_identity(self):
        assert shape_of(identity(7)) == Shape((7,))

    def test_345619278(self):
        assert shape_of(P(3, 4, 5, 6, 1, 9, 2, 7, 8)).parts[0] == 6

    def test_first_parts_match_subsequence_oracles(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                shape = shape_of(w)
                assert shape.parts[0] == lis_length(w.entries)
                assert len(shape.parts) == lds_length(w.entries)


class TestRskBijection:
    def test_injective_small(self):
        import math

        for n in range(1, 6):
            pairs = {rsk(w) for w in all_permutations(n)}
            assert len(pairs) == math.factorial(n)

    def test_inverse_swaps_tableaux(self):
        for w in all_permutations(6):
            p, q = rsk(w)
            p_inv, q_inv = rsk(w.inverse())
            assert p_inv == q
            assert q_inv == p

    def test_boolean_has_at_most_two_rows(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                if w.is_fully_commutative():
                    assert len(shape_of(w).parts) <= 2

    def test_321_avoiders_of_degree_8_have_at_most_two_rows(self):
        count = 0
        for w in all_permutations(8):
            if w.is_fully_commutative():
                assert len(shape_of(w).parts) <= 2
                count += 1
        assert count == 1430  # the 8th Catalan number


class TestRow2FromCanonical:
    def test_full_support_example(self):
        canonical = canonical_from_word(Word((2, 5, 9, 1, 3, 6, 8, 4, 7), 10))
        row2_p, row2_q = row2_from_canonical(canonical)
        assert row2_p == frozenset({3, 10, 6, 4})
        assert row2_q == frozenset({2, 9, 8, 5})

    def test_empty_canonical_word(self):
        canonical = canonical_from_heap(heap_of(identity(3)))
        assert row2_from_canonical(canonical) == (frozenset(), frozenset())

    def test_disconnected_example_against_insertion(self):
        w = P(2, 3, 1, 5, 4, 8, 6, 9, 7, 11, 10)
        canonical = canonical_from_word(Word((4, 7, 1, 10, 2, 6, 8), 11))
        row2_p, row2_q = row2_from_canonical(canonical)
        assert row2_p == frozenset({5, 8, 9, 11, 2})
        assert row2_q == frozenset({5, 7, 9, 11, 3})
        p, q = rsk(w)
        assert row2_p == frozenset(p.row2)
        assert row2_q == frozenset(q.row2)

    def test_matches_insertion_everywhere_small(self):
        for n in range(1, 11):
            for w in boolean_permutations(n):
                canonical = canonical_from_heap(heap_of(w))
                row2_p, row2_q = row2_from_canonical(canonical)
                p, q = rsk(w)
                assert row2_p == frozenset(p.row2)
                assert row2_q == frozenset(q.row2)

    def test_no_three_consecutive_in_second_row(self):
        for n in range(1, 11):
            for w in boolean_permutations(n):
                row2 = set(rsk(w)[0].row2)
                assert not any({i, i + 1, i + 2} <= row2 for i in row2)
