"""Window-density checks, realization, the binary-word bijection, counting."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolrsk import (
    BinaryWord,
    CrowdedError,
    DomainError,
    Permutation,
    StandardTableau,
    binary_word_from_tableau,
    boolean_permutations,
    canonical_from_heap,
    canonical_from_word,
    count_uncrowded,
    count_uncrowded_range,
    crowding_witness,
    evaluate,
    heap_of,
    is_feasible_second_row,
    is_uncrowded,
    is_uncrowded_tableau,
    leftmost_letters,
    odd_run_words,
    realize_leftmost_letters,
    rsk,
    tableau_from_binary_word,
)

from oracles import odd_block_words, odd_block_words_starting_with_one, uncrowded_naive


def T(*rows):
    return StandardTableau(tuple(tuple(row) for row in rows))


def bits(text):
    return BinaryWord(tuple(int(ch) for ch in text))


class TestIsUncrowded:
    def test_pair(self):
        assert is_uncrowded({3, 4})

    def test_crowded_window(self):
        assert not is_uncrowded({4, 6, 7, 8})
        assert crowding_witness({4, 6, 7, 8}) == (4, 2, 4)

    def test_empty(self):
        assert is_uncrowded(set())

    def test_all_small_subsets_against_naive_oracle(self):
        universe = list(range(0, 9))
        for size in range(0, 10):
            for subset in itertools.combinations(universe, size):
                assert is_uncrowded(subset) == uncrowded_naive(subset), subset

    @given(st.sets(st.integers(min_value=-25, max_value=25), max_size=12))
    def test_random_sets_against_naive_oracle(self, values):
        assert is_uncrowded(values) == uncrowded_naive(values)


class TestUncrowdedTableau:
    def test_two_row_yes(self):
        assert is_uncrowded_tableau(T([1, 2], [3, 4]))

    def test_two_row_no(self):
        assert not is_uncrowded_tableau(T([1, 2, 3, 5], [4, 6, 7, 8]))

    def test_single_row(self):
        assert is_uncrowded_tableau(T(list(range(1, 8))))

    def test_three_rows_rejected(self):
        with pytest.raises(DomainError, match="rows"):
            is_uncrowded_tableau(T([1, 4], [2, 5], [3, 6]))


class TestAdjoiningOne:
    """Adjoining 1 never changes crowdedness of a set that fits inside a
    second row."""

    def test_realizable_uncrowded(self):
        assert is_feasible_second_row({4, 5, 8})
        assert is_uncrowded({4, 5, 8}) and is_uncrowded({1, 4, 5, 8})

    def test_empty(self):
        assert is_feasible_second_row(set())
        assert is_uncrowded(set()) and is_uncrowded({1})

    def test_unrealizable_rejected(self):
        # {2,4,6,7} saturates every prefix (the 4th element would need to be
        # at least 8), and it is exactly the kind of set for which adjoining 1
        # flips the verdict; the realizability precondition screens it out
        assert is_uncrowded({2, 4, 6, 7})
        assert not is_uncrowded({1, 2, 4, 6, 7})
        assert not is_feasible_second_row({2, 4, 6, 7})

    def test_never_flips_for_actual_second_rows(self):
        for n in range(1, 8):
            for w in boolean_permutations(n):
                row2 = set(rsk(w)[0].row2)
                assert is_feasible_second_row(row2)
                assert is_uncrowded(row2) and is_uncrowded(row2 | {1})


class TestRealize:
    def test_odd_letters_stack(self):
        canonical = realize_leftmost_letters({1, 3, 5}, 7)
        assert [run.letters for run in canonical.runs] == [(5, 6), (3, 4), (1, 2)]

    def test_empty_set(self):
        canonical = realize_leftmost_letters(set(), 4)
        assert canonical.runs == ()

    def test_example_leftmost_letters(self):
        wanted = {2, 9, 5, 3}
        canonical = realize_leftmost_letters(wanted, 10)
        assert leftmost_letters(canonical) == frozenset(wanted)
        # the construction output is genuinely canonical: both round trips agree
        assert canonical_from_word(canonical.word) == canonical
        w = evaluate(canonical.word)
        assert canonical_from_heap(heap_of(w)) == canonical

    def test_crowded_rejected(self):
        with pytest.raises(CrowdedError) as caught:
            realize_leftmost_letters({1, 2}, 9)
        assert caught.value.witness == (0, 1, 3)
        assert str(caught.value) == "[0, 1, 2] is crowded: window [0, 2] holds 3 > 2 elements"

    def test_degree_too_small_rejected(self):
        with pytest.raises(DomainError, match="degree"):
            realize_leftmost_letters({1, 3, 5}, 6)

    def test_letters_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="range"):
            realize_leftmost_letters({9}, 9)

    def test_every_small_uncrowded_set_realizes(self):
        for size in range(0, 7):
            for wanted in itertools.combinations(range(1, 7), size):
                if not is_uncrowded(set(wanted) | {0}):
                    continue
                canonical = realize_leftmost_letters(wanted, 16)
                assert leftmost_letters(canonical) == frozenset(wanted)
                w = evaluate(canonical.word)
                assert w.is_boolean()
                assert canonical_from_heap(heap_of(w)) == canonical


class TestWordToTableau:
    def test_large_worked_example(self):
        tableau = tableau_from_binary_word(bits("10010101111101110"))
        assert tableau == T(
            [1, 2, 3, 6, 7, 9, 12, 14, 16, 17], [4, 5, 8, 10, 11, 13, 15, 18]
        )

    def test_all_zeros(self):
        assert tableau_from_binary_word(bits("0000")) == T([1, 2, 3, 4, 5])

    def test_single_one(self):
        assert tableau_from_binary_word(bits("1")) == T([1], [2])

    def test_even_run_rejected(self):
        with pytest.raises(DomainError, match="even"):
            tableau_from_binary_word(bits("110"))

    def test_always_lands_in_uncrowded_tableaux(self):
        for n in range(1, 11):
            for word in odd_run_words(n):
                tableau = tableau_from_binary_word(word)
                assert tableau.n == n
                assert is_uncrowded_tableau(tableau)


    @pytest.mark.parametrize("bits", [(0, 0, 0), (1, 0, 1, 1, 1), (0, 1, 1)])
    def test_reads_the_blocks_of_ones_once(self, monkeypatch, bits):
        one_runs, calls = BinaryWord.one_runs, []

        def counted(word):
            calls.append(word.bits)
            return one_runs(word)

        monkeypatch.setattr(BinaryWord, "one_runs", counted)
        try:
            tableau_from_binary_word(BinaryWord(bits))
        except DomainError:
            assert bits == (0, 1, 1)
        assert calls == [bits]


class TestTableauToWord:
    def test_large_worked_example(self):
        tableau = T([1, 2, 3, 6, 7, 9, 12, 14, 16, 17], [4, 5, 8, 10, 11, 13, 15, 18])
        assert str(binary_word_from_tableau(tableau)) == "10010101111101110"

    def test_single_row(self):
        assert binary_word_from_tableau(T([1, 2, 3])) == bits("00")

    def test_small_roundtrip(self):
        word = binary_word_from_tableau(T([1, 2], [3, 4]))
        assert word == bits("111")
        assert all(length % 2 for _, length in word.one_runs())
        assert tableau_from_binary_word(word) == T([1, 2], [3, 4])

    def test_crowded_rejected(self):
        with pytest.raises(CrowdedError) as caught:
            binary_word_from_tableau(T([1, 2, 3, 5], [4, 6, 7, 8]))
        assert caught.value.witness == (4, 2, 4)
        assert str(caught.value) == "second row [4, 6, 7, 8] is crowded"

    def test_bijection_small(self):
        for n in range(1, 11):
            words = list(odd_run_words(n))
            tableaux = [tableau_from_binary_word(word) for word in words]
            assert len(set(tableaux)) == len(words)
            for word, tableau in zip(words, tableaux):
                assert binary_word_from_tableau(tableau) == word


class TestEnumeration:
    def test_size_one(self):
        assert [word.bits for word in odd_run_words(1)] == [()]

    def test_size_four(self):
        assert [str(word) for word in odd_run_words(4)] == [
            "000",
            "001",
            "010",
            "100",
            "101",
            "111",
        ]

    def test_size_ten_count(self):
        assert sum(1 for _ in odd_run_words(10)) == 197

    def test_lexicographic_and_valid(self):
        for n in range(1, 12):
            words = [word.bits for word in odd_run_words(n)]
            assert words == sorted(words)
            assert len(words) == len(set(words))
            for bits_ in words:
                assert all(length % 2 for _, length in BinaryWord(bits_).one_runs())


class TestCounts:
    def test_totals_table(self):
        assert [count_uncrowded(n).total for n in range(1, 11)] == [
            1, 2, 3, 6, 10, 19, 33, 61, 108, 197,
        ]

    def test_max_in_row2_table(self):
        assert [count_uncrowded(n).max_in_row2 for n in range(1, 11)] == [
            0, 1, 1, 3, 4, 9, 14, 28, 47, 89,
        ]

    def test_two_row_is_total_minus_one(self):
        assert count_uncrowded(4).two_row == 5

    def test_matches_enumeration(self):
        for n in range(1, 12):
            counts = count_uncrowded(n)
            words = list(odd_run_words(n))
            assert counts.total == len(words)
            assert counts.max_in_row2 == sum(1 for w in words if w.bits[:1] == (1,))

    def test_matches_recursive_count(self):
        for n in range(1, 301):
            counts = count_uncrowded(n)
            assert counts.total == odd_block_words(n - 1)
            assert counts.max_in_row2 == odd_block_words_starting_with_one(n - 1)

    def test_range_matches_single_sizes(self):
        assert list(count_uncrowded_range(3, 40)) == [count_uncrowded(n) for n in range(3, 41)]
        assert list(count_uncrowded_range(5, 4)) == []
        with pytest.raises(ValueError):
            count_uncrowded(0)

    def test_linear_recurrence_to_size_1000(self):
        totals = [None] + [count_uncrowded(n).total for n in range(1, 1001)]
        with_max = [None] + [count_uncrowded(n).max_in_row2 for n in range(1, 1001)]
        for n in range(4, 1001):
            assert totals[n] == totals[n - 1] + 2 * totals[n - 2] - totals[n - 3]
        for n in range(5, 1001):
            assert with_max[n] == with_max[n - 1] + 2 * with_max[n - 2] - with_max[n - 3]


class TestBooleanCharacterization:
    def test_second_row_family_matches_prediction(self):
        for n in range(1, 7):
            actual = {frozenset(rsk(w)[0].row2) for w in boolean_permutations(n)}
            predicted = set()
            for size in range(0, n // 2 + 1):
                for picked in itertools.combinations(range(2, n + 1), size):
                    shifted = {x - 1 for x in picked} | {0}
                    if is_feasible_second_row(picked) and is_uncrowded(shifted):
                        predicted.add(frozenset(picked))
            assert actual == predicted

    def test_uncrowded_tableaux_do_not_force_boolean(self):
        w = Permutation((3, 4, 1, 2))
        p, q = rsk(w)
        assert is_uncrowded_tableau(p)
        assert is_uncrowded_tableau(q)
        assert not w.is_boolean()
