"""The fast boolean test, 321 scan, depth, inversion count, reduced word,
heap, crowding check, realization, word enumeration, canonical word,
binary-word decoding, least longest increasing subsequence, row insertion,
linear extensions, 3412 search, step map, optimal run word and Ulam moves
against the slow paths they replaced, plus guards against a return to a cubic,
quadratic or span-bound cost and to recursion that grows with the input."""

import functools
import itertools
import random
import time

import pytest

from boolrsk import (
    BinaryWord,
    DomainError,
    Heap,
    NotBooleanError,
    Permutation,
    Word,
    all_permutations,
    apply_ulam_move,
    binary_word_from_tableau,
    boolean_permutations,
    canonical_from_heap,
    canonical_from_word,
    crowding_witness,
    evaluate,
    heap_of,
    identity,
    is_uncrowded,
    linear_extensions,
    odd_run_words,
    optimal_run_word,
    realize_leftmost_letters,
    rsk,
    run_step,
    tableau_from_binary_word,
    ulam_sort,
)
from boolrsk.acceptance import canonical_by_peeling

from oracles import (
    avoids_321_by_suffix_min,
    binary_word_by_windows,
    boolean_witness_by_patterns,
    canonical_from_heap_by_covers,
    canonical_from_heap_by_min,
    canonical_from_word_checked,
    crowding_witness_scan,
    is_boolean_by_length,
    length_pairwise,
    lex_least_lis_dp,
    linear_extensions_recursive,
    moves_from_runs_by_words,
    odd_block_word_list,
    odd_block_words,
    optimal_run_word_by_insertion,
    pattern_witness_backtracking,
    realize_by_recursion,
    reduced_word_by_leftmost_descent,
    rsk_by_linear_scan,
    run_step_by_products,
    times_letters,
)
from test_cli import run_cli, run_cli_fresh


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
    if witness is None:
        assert heap_of(w) == heap_from_word(letters, w.n)
    elif check_rejection:
        with pytest.raises(NotBooleanError) as caught:
            heap_of(w)
        assert (caught.value.pattern, caught.value.positions) == witness


@functools.lru_cache(maxsize=None)
def small_group_witnesses(n):
    """(w, boolean_witness_by_patterns(w)) for every w in S_n, computed once
    for the tests that share it."""
    return tuple((w, boolean_witness_by_patterns(w.entries)) for w in all_permutations(n))


def test_exhaustive_small_groups():
    # S_8 checks heap_of on its boolean elements only, to keep the test short
    for n in range(1, 9):
        for w, witness in small_group_witnesses(n):
            assert_matches_slow_paths(w, witness, n < 8)


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
            longer = times_letters(w, (a,), "right")
            witness = boolean_witness_by_patterns(longer.entries)
            if witness[0] == "3412":
                break
        else:
            pytest.fail("no lengthening letter keeps the product 321-avoiding")
        assert_matches_slow_paths(longer, witness)


def lengthen_within_321_avoiders(rng, w):
    """w times s_a for a random ascent a that keeps the product 321-avoiding."""
    ascents = [a for a in range(1, w.n) if w(a) < w(a + 1)]
    rng.shuffle(ascents)
    for a in ascents:
        longer = times_letters(w, (a,), "right")
        if avoids_321_by_suffix_min(longer.entries):
            return longer
    pytest.fail("no lengthening letter keeps the product 321-avoiding")


def boolean_test_cases(rng, n):
    """(w, is boolean, avoids 321) for w of degree n: boolean ones with full
    and partial support, a 321-avoider containing 3412, a random permutation,
    and a boolean one followed by a 321 block, whose depth equals its support
    size so that only the 321 scan rejects it."""
    full = boolean_from_shuffled_letters(rng, n, range(1, n))
    partial = boolean_from_shuffled_letters(rng, n, rng.sample(range(1, n), n // 2))
    head = boolean_from_shuffled_letters(rng, n - 3, rng.sample(range(1, n - 3), n // 2))
    block = Permutation(head.entries + (n, n - 1, n - 2))
    assert block.depth() == len(block.support())
    return [
        (full, True, True),
        (partial, True, True),
        (lengthen_within_321_avoiders(rng, full), False, True),
        (random_permutation(rng, n), False, False),
        (block, False, False),
    ]


class TestBooleanByDepth:
    """The O(n) boolean test (depth = |supp(w)| on a 321-avoider) and the
    one-pass 321 scan against the inversion count and the suffix-minimum scan
    they replaced."""

    def test_exhaustive_small_groups(self):
        for n in range(1, 9):
            for w in all_permutations(n):
                assert w.is_fully_commutative() == avoids_321_by_suffix_min(w.entries), w
                assert w.is_boolean() == is_boolean_by_length(w), w

    def test_depth_equals_length_exactly_on_321_avoiders(self):
        for n in range(1, 8):
            for w in all_permutations(n):
                depth = sum(v - i for i, v in enumerate(w.entries, start=1) if v > i)
                assert w.depth() == depth, w
                assert (depth == w.length()) == avoids_321_by_suffix_min(w.entries), w

    def test_seeded_degrees_100_to_1000(self):
        rng = random.Random(1013)
        for n in (100, 250, 500, 1000):
            for w, boolean, avoids_321 in boolean_test_cases(rng, n):
                assert w.is_boolean() == is_boolean_by_length(w) == boolean
                assert w.is_fully_commutative() == avoids_321_by_suffix_min(w.entries)
                assert w.is_fully_commutative() == avoids_321


def assert_shared_boolean_test(w, witness):
    """``is_boolean``, ``boolean_witness`` and ``heap_of``, which share one
    boolean test, against the oracles.  ``witness`` is what
    ``boolean_witness_by_patterns`` returns for w.  The support and the heap
    come from the leftmost-descent reduced word, whose letters are distinct
    exactly when w is boolean; on boolean w the canonical words read off the
    heap and off that word must agree."""
    letters = reduced_word_by_leftmost_descent(w.entries)
    boolean = witness is None
    assert (len(set(letters)) == len(letters)) == boolean, w
    assert w.is_boolean() == boolean, w
    assert w.boolean_witness() == witness, w
    assert w._boolean_support() == (frozenset(letters) if boolean else None), w
    if boolean:
        heap = heap_of(w)
        assert heap == heap_from_word(letters, w.n), w
        assert canonical_from_heap(heap) == canonical_from_word(Word(letters, w.n)), w
    else:
        with pytest.raises(NotBooleanError) as caught:
            heap_of(w)
        assert (caught.value.pattern, caught.value.positions) == witness, w


def block_then_boolean(rng, n, share):
    """A 321-avoider of degree n containing 3412, and its witness: a random
    block of degree 4 to 8 whose least 3412 starts at its first entry, then a
    boolean permutation of the larger values using about ``share`` of its
    letters.  In this direct sum a 3412 that starts in the block lies in it,
    so the least 3412 is the block's, and no search walks the tail for each
    of its first entries."""
    while True:
        k = rng.randint(4, 8)
        block = tuple(rng.sample(range(1, k + 1), k))
        witness = boolean_witness_by_patterns(block)
        if witness is not None and witness[0] == "3412" and witness[1][0] == 1:
            break
    m = n - k
    tail = boolean_from_shuffled_letters(rng, m, rng.sample(range(1, m), round(share * (m - 1))))
    return Permutation(block + tuple(v + k for v in tail.entries)), witness


class TestSharedBooleanTest:
    """One boolean test serves ``is_boolean`` and ``heap_of``, and returns the
    support that ``heap_of`` keeps; ``boolean_witness`` tests 321 first."""

    def test_every_permutation_up_to_degree_8(self):
        for n in range(1, 9):
            for w, witness in small_group_witnesses(n):
                assert_shared_boolean_test(w, witness)

    @pytest.mark.parametrize("n", [100, 250, 500, 1000, 2000])
    def test_seeded_boolean_and_3412_rejects(self, n):
        rng = random.Random(8101 + n)
        for share in (1.0, 0.6):
            letters = rng.sample(range(1, n), round(share * (n - 1)))
            assert_shared_boolean_test(boolean_from_shuffled_letters(rng, n, letters), None)
            assert_shared_boolean_test(*block_then_boolean(rng, n, share))


def test_degree_2000_boolean_success_path_is_fast():
    rng = random.Random(2000)
    n = 2000
    w = boolean_from_shuffled_letters(rng, n, range(1, n))
    start = time.perf_counter()
    assert w.is_boolean()
    assert w.length() == n - 1
    assert len(heap_of(w).elements) == n - 1
    assert time.perf_counter() - start < 2.0


def test_canonical_word_matches_peeling_degrees_100_to_500():
    rng = random.Random(3391)
    for n in range(100, 501, 100):
        for letters in (range(1, n), rng.sample(range(1, n), rng.randint(n // 2, n - 2))):
            letters = list(letters)
            rng.shuffle(letters)
            word = Word(tuple(letters), n)
            assert canonical_from_word(word) == canonical_by_peeling(word)


def sparse_set(rng, size, gaps=(2, 3, 4)):
    values = [rng.randint(-50, 50)]
    while len(values) < size:
        values.append(values[-1] + rng.choice(gaps))
    return values


class TestCrowdingWitness:
    def test_every_subset_of_0_to_12(self):
        for size in range(14):
            for subset in itertools.combinations(range(13), size):
                assert crowding_witness(subset) == crowding_witness_scan(subset), subset

    def test_random_sets_with_negative_entries(self):
        rng = random.Random(6113)
        for _ in range(3000):
            values = rng.sample(range(-40, 40), rng.randint(0, 24))
            assert crowding_witness(values) == crowding_witness_scan(values), values

    def test_sparse_sets_with_and_without_a_planted_triple(self):
        rng = random.Random(4409)
        for _ in range(4):
            values = sparse_set(rng, rng.randint(200, 400))
            assert crowding_witness(values) is None
            assert crowding_witness_scan(values) is None
            e = values[rng.randrange(len(values) - 1)]
            planted = sorted(set(values) | {e + 1, e + 2})
            witness = crowding_witness(planted)
            assert witness is not None and witness == crowding_witness_scan(planted)

    def test_near_tight_sets_with_gaps_of_one(self):
        # gaps of 1 among gaps of 2 crowd windows of every width
        rng = random.Random(7331)
        for _ in range(30):
            values = sparse_set(rng, rng.randint(200, 400), gaps=(1, 2, 2, 2, 2, 2, 3))
            assert crowding_witness(values) == crowding_witness_scan(values)

    def test_100000_element_sparse_set_is_fast(self):
        values = sparse_set(random.Random(100000), 100000)
        start = time.perf_counter()
        assert is_uncrowded(values)
        assert time.perf_counter() - start < 1.0

    def test_20000_element_set_in_fresh_process(self):
        # every window of the even numbers is full, and the span is 40000
        start = time.perf_counter()
        done = run_cli_fresh("uncrowded", "set", " ".join(map(str, range(0, 40000, 2))))
        assert time.perf_counter() - start < 5.0
        assert done.returncode == 0
        assert "Traceback" not in done.stderr
        assert done.stdout.strip().splitlines()[-1] == "uncrowded"


class TestRecursionFree:
    def test_realize_matches_recursive_construction(self):
        for size in range(7):
            for wanted in itertools.combinations(range(1, 13), size):
                if not is_uncrowded(set(wanted) | {0}):
                    continue
                canonical = realize_leftmost_letters(wanted, 26)
                dec, inc = realize_by_recursion(list(wanted))
                assert [run.letters for run in canonical.dec_runs] == dec
                assert [run.letters for run in canonical.inc_runs] == inc

    def test_realize_matches_recursive_construction_at_scale(self):
        rng = random.Random(2027)
        for _ in range(40):
            wanted = []
            for _ in range(rng.randrange(100, 501)):
                gap = rng.randrange(2, 5)
                wanted.append((wanted[-1] if wanted else 0) + gap)
                if gap > 2 and rng.random() < 0.3:  # a pivot, and a rising run on its level
                    wanted.append(wanted[-1] + 1)
            assert is_uncrowded(set(wanted) | {0})
            canonical = realize_leftmost_letters(wanted, wanted[-1] + 2)
            dec, inc = realize_by_recursion(wanted)
            assert [run.letters for run in canonical.dec_runs] == dec
            assert [run.letters for run in canonical.inc_runs] == inc

    def test_realize_scans_only_up_to_its_letters(self):
        start = time.perf_counter()
        canonical = realize_leftmost_letters({1, 3}, 10**9)
        assert time.perf_counter() - start < 0.1
        assert canonical.letters == (3, 4, 1, 2)

    def test_odd_run_words_match_filtering(self):
        for n in range(1, 13):
            words = [word.bits for word in odd_run_words(n)]
            assert words == odd_block_word_list(n - 1)
            assert len(words) == odd_block_words(n - 1)

    def test_first_odd_run_word_of_degree_1500(self):
        assert next(odd_run_words(1500)).bits == (0,) * 1499


def random_odd_block_word(rng, length):
    """Zeros and odd blocks of 1s up to 51 long, cut to ``length`` bits with
    the last block kept odd."""
    bits = []
    while len(bits) < length:
        if rng.random() < 0.5:
            bits.append(0)
        else:
            block = min(rng.randrange(1, 52, 2), length - len(bits))
            block -= 1 - block % 2
            bits += [1] * block + [0]
    return BinaryWord(tuple(bits[:length]))


class TestBinaryWordDecoding:
    # criterion 6 of the acceptance suite round-trips every word up to size 14
    def test_matches_window_scan_on_long_words(self):
        rng = random.Random(8123)
        for length in (200, 500, 1000, 2000):
            word = random_odd_block_word(rng, length)
            assert all(len(b) % 2 for b in str(word).split("0") if b)
            tableau = tableau_from_binary_word(word)
            assert binary_word_from_tableau(tableau) == word
            assert binary_word_by_windows(tableau) == word.bits

    def test_all_ones_of_size_20002_is_fast(self):
        tableau = tableau_from_binary_word(BinaryWord((1,) * 20001))
        start = time.perf_counter()
        word = binary_word_from_tableau(tableau)
        assert time.perf_counter() - start < 1.0
        assert word.bits == (1,) * 20001


def lis_pair(w):
    sub = w.lex_least_lis()
    return sub.positions, sub.values


def random_permutation(rng, n):
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    return Permutation(tuple(entries))


def near_sorted_permutation(rng, n, moves):
    """The identity after ``moves`` random delete-and-reinsert moves."""
    entries = list(range(1, n + 1))
    for _ in range(moves):
        v = entries.pop(rng.randrange(n))
        entries.insert(rng.randrange(n), v)
    return Permutation(tuple(entries))


class TestLexLeastLis:
    def test_exhaustive_small_groups(self):
        for n in range(1, 9):
            for w in all_permutations(n):
                assert lis_pair(w) == lex_least_lis_dp(w.entries), w

    def test_random_degrees_100_to_500(self):
        rng = random.Random(4127)
        for _ in range(300):
            w = random_permutation(rng, rng.randint(100, 500))
            assert lis_pair(w) == lex_least_lis_dp(w.entries)

    def test_near_sorted_degrees_100_to_500(self):
        rng = random.Random(9043)
        for _ in range(100):
            w = near_sorted_permutation(rng, rng.randint(100, 500), rng.randint(1, 4))
            assert lis_pair(w) == lex_least_lis_dp(w.entries)

    def test_step_lengthens_the_lis_by_one(self):
        rng = random.Random(6007)
        for _ in range(20):
            w = random_permutation(rng, 200)
            assert len(run_step(w).result.lex_least_lis()) == len(w.lex_least_lis()) + 1

    def test_random_near_sorted_and_decreasing_degrees_500_to_1000(self):
        rng = random.Random(7019)
        for _ in range(3):
            n = rng.randint(500, 1000)
            for w in (
                random_permutation(rng, n),
                near_sorted_permutation(rng, n, rng.randint(1, 6)),
                Permutation(tuple(range(n, 0, -1))),
            ):
                assert lis_pair(w) == lex_least_lis_dp(w.entries)

    def test_degree_100000_is_fast(self):
        w = random_permutation(random.Random(100000), 100000)
        start = time.perf_counter()
        sub = w.lex_least_lis()
        assert time.perf_counter() - start < 1.0
        assert all(w(p) == v for p, v in zip(sub.positions, sub.values))


class TestCanonicalFromHeap:
    def test_every_boolean_permutation_up_to_degree_7(self):
        for n in range(1, 8):
            for w in boolean_permutations(n):
                heap = heap_of(w)
                assert canonical_from_heap(heap) == canonical_from_heap_by_min(heap), w

    def test_full_and_partial_support_degrees_100_to_500(self):
        rng = random.Random(5281)
        for n in range(100, 501, 100):
            for letters in (range(1, n), rng.sample(range(1, n), (n - 1) * 3 // 5)):
                heap = heap_of(boolean_from_shuffled_letters(rng, n, letters))
                assert canonical_from_heap(heap) == canonical_from_heap_by_min(heap)

    def test_full_support_degree_8000_is_fast(self):
        heap = heap_of(boolean_from_shuffled_letters(random.Random(8000), 8000, range(1, 8000)))
        start = time.perf_counter()
        canonical = canonical_from_heap(heap)
        assert time.perf_counter() - start < 0.2
        assert len(canonical) == 7999


def assert_canonical_matches_slow_paths(word, checked=True):
    """Both fast canonical-word functions against the sorted covers walk, the
    min-and-rebuild scan and peeling; ``checked`` adds the oracle that runs
    the full reducedness and pattern checks first, which is slow past degree
    100."""
    heap = heap_of(evaluate(word))
    expected = canonical_from_heap_by_covers(heap)
    assert canonical_from_heap_by_min(heap) == expected
    assert canonical_by_peeling(word) == expected
    assert canonical_from_heap(heap) == expected
    assert canonical_from_word(word) == expected
    if checked:
        assert canonical_from_word_checked(word) == expected


class TestOrientationScan:
    """The one-pass orientation scan behind ``canonical_from_heap`` and
    ``canonical_from_word``, and the heap read off the entries."""

    def test_every_boolean_permutation_up_to_degree_8(self):
        for n in range(1, 9):
            for w in boolean_permutations(n):
                assert_canonical_matches_slow_paths(canonical_from_heap(heap_of(w)).word)

    @pytest.mark.parametrize("n", [100, 250, 500, 1000])
    def test_seeded_degrees_at_60_and_100_percent_support(self, n):
        rng = random.Random(4001 + n)
        for letters in (rng.sample(range(1, n), (n - 1) * 3 // 5), list(range(1, n))):
            rng.shuffle(letters)
            assert_canonical_matches_slow_paths(Word(tuple(letters), n), checked=n <= 100)

    @pytest.mark.parametrize("n", [100, 250, 500, 1000, 2000])
    def test_heap_of_matches_leftmost_descent_word(self, n):
        rng = random.Random(6007 + n)
        for letters in (rng.sample(range(1, n), (n - 1) * 3 // 5), range(1, n)):
            w = boolean_from_shuffled_letters(rng, n, letters)
            expected = heap_from_word(reduced_word_by_leftmost_descent(w.entries), n)
            assert heap_of(w) == expected


def rows_of(w):
    p, q = rsk(w)
    return p.rows, q.rows


class TestInsertion:
    """``rsk`` appends to row one inline and bumps only on a real bump; the
    oracle scans each row from the left."""

    def test_every_permutation_up_to_degree_7(self):
        for n in range(1, 8):
            for w in all_permutations(n):
                assert rows_of(w) == rsk_by_linear_scan(w.entries), w

    def test_random_decreasing_and_boolean_of_degree_500(self):
        rng = random.Random(5003)
        n = 500
        cases = [random_permutation(rng, n) for _ in range(3)]
        cases.append(Permutation(tuple(range(n, 0, -1))))
        cases.append(boolean_from_shuffled_letters(rng, n, range(1, n)))
        cases.append(boolean_from_shuffled_letters(rng, n, rng.sample(range(1, n), 300)))
        for w in cases:
            assert rows_of(w) == rsk_by_linear_scan(w.entries)


class TestLinearExtensions:
    def test_every_boolean_heap_up_to_degree_7(self):
        for n in range(1, 8):
            for w in boolean_permutations(n):
                heap = heap_of(w)
                ours = [word.letters for word in linear_extensions(heap)]
                assert ours == list(linear_extensions_recursive(heap)), w

    def test_first_extension_of_a_19999_element_chain(self):
        # a walk that rescanned from letter 1 at each step would take about 20 s
        n = 20_000
        heap = heap_of(evaluate(Word(tuple(range(1, n)), n)))
        start = time.perf_counter()
        assert next(linear_extensions(heap)).letters == tuple(range(1, n))
        assert time.perf_counter() - start < 1.0


class TestLeast3412:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_backtracking(self, n):
        for w in all_permutations(n):
            assert w._least_3412() == pattern_witness_backtracking(w.entries, (3, 4, 1, 2)), w


def blocks_then_321(m):
    """(m+1, ..., 2m, 1, ..., m, 2m+3, 2m+2, 2m+1).  Each of the first m
    entries exceeds the next m, none of which has a smaller entry after it, so
    the least 321 is the last three positions and a backtracking search tries
    every earlier pair first."""
    low, high = range(1, m + 1), range(m + 1, 2 * m + 1)
    return Permutation((*high, *low, 2 * m + 3, 2 * m + 2, 2 * m + 1))


class TestLeast321:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 20, 100])
    def test_blocks_then_321_match_backtracking(self, m):
        w = blocks_then_321(m)
        assert w.boolean_witness() == boolean_witness_by_patterns(w.entries)
        assert w.boolean_witness() == ("321", (2 * m + 1, 2 * m + 2, 2 * m + 3))

    def test_seeded_321_rejects_degrees_100_to_300(self):
        # random permutations, and boolean ones with the three largest values
        # planted in decreasing order at random positions
        rng = random.Random(3217)
        for _ in range(8):
            n = rng.randint(100, 300)
            rest = iter(boolean_from_shuffled_letters(rng, n - 3, range(1, n - 3)).entries)
            planted = dict(zip(sorted(rng.sample(range(n), 3)), (n, n - 1, n - 2)))
            entries = tuple(planted.get(p) or next(rest) for p in range(n))
            for w in (random_permutation(rng, n), Permutation(entries)):
                witness = boolean_witness_by_patterns(w.entries)
                assert witness[0] == "321"
                assert w.boolean_witness() == witness

    def test_degree_2003_is_fast_and_the_cli_names_the_witness(self):
        w = blocks_then_321(1000)
        start = time.perf_counter()
        witness = w.boolean_witness()
        assert time.perf_counter() - start < 0.05
        assert witness == ("321", (2001, 2002, 2003))
        code, out, err = run_cli("heap", " ".join(map(str, w.entries)))
        assert (code, out) == (1, "")
        assert err == "error: not boolean: pattern 321 at positions (2001, 2002, 2003)\n"


def assert_step_matches_products(w):
    step, expected = run_step(w), run_step_by_products(w)
    assert step.result == expected.result, w
    assert step.run == expected.run, w
    assert step.side == expected.side, w
    assert step.case == expected.case, w


class TestRunStep:
    def test_every_non_identity_permutation_up_to_degree_8(self):
        for n in range(1, 9):
            for w in all_permutations(n):
                if not w.is_identity():
                    assert_step_matches_products(w)

    def test_random_near_sorted_and_decreasing_degrees_100_to_500(self):
        rng = random.Random(5519)
        for _ in range(40):
            n = rng.randint(100, 500)
            assert_step_matches_products(random_permutation(rng, n))
            assert_step_matches_products(near_sorted_permutation(rng, n, rng.randint(1, 6)))
            assert_step_matches_products(Permutation(tuple(range(n, 0, -1))))

    def test_random_near_sorted_and_decreasing_degrees_500_to_1000(self):
        rng = random.Random(8089)
        for _ in range(3):
            n = rng.randint(500, 1000)
            assert_step_matches_products(random_permutation(rng, n))
            assert_step_matches_products(near_sorted_permutation(rng, n, rng.randint(1, 6)))
            assert_step_matches_products(Permutation(tuple(range(n, 0, -1))))

    @pytest.mark.parametrize("n", [1, 2, 8, 300])
    def test_identity_raises_the_same_message(self, n):
        with pytest.raises(DomainError) as fast:
            run_step(identity(n))
        with pytest.raises(DomainError) as slow:
            run_step_by_products(identity(n))
        assert str(fast.value) == str(slow.value)


def assert_run_word_and_moves_match_slow_paths(w):
    runs = optimal_run_word(w)
    assert runs == optimal_run_word_by_insertion(w), w
    moves = ulam_sort(w)
    states = list(itertools.accumulate(moves, apply_ulam_move, initial=w))[1:]
    assert list(zip(moves, states)) == moves_from_runs_by_words(w, runs), w


class TestRunWordAndUlamMoves:
    def test_exhaustive_small_groups(self):
        for n in range(1, 9):
            for w in all_permutations(n):
                assert_run_word_and_moves_match_slow_paths(w)

    def test_random_degrees_50_to_300(self):
        rng = random.Random(3301)
        for _ in range(20):
            w = random_permutation(rng, rng.randint(50, 300))
            assert_run_word_and_moves_match_slow_paths(w)

    def test_near_sorted_degrees_50_to_300(self):
        rng = random.Random(7417)
        for _ in range(40):
            w = near_sorted_permutation(rng, rng.randint(50, 300), rng.randint(1, 6))
            assert_run_word_and_moves_match_slow_paths(w)


def outcome(function, word):
    """The result of ``function(word)``, or the type and message of its DomainError."""
    try:
        return function(word)
    except DomainError as exc:
        return type(exc), str(exc)


class TestCanonicalFromWord:
    def test_distinct_letters_make_a_reduced_word_up_to_degree_7(self):
        # canonical_from_word skips the reducedness check for such words
        for n in range(1, 8):
            for k in range(n):
                for letters in itertools.permutations(range(1, n), k):
                    assert length_pairwise(evaluate(Word(letters, n)).entries) == k, letters

    def test_every_word_of_length_at_most_5_in_degree_5(self):
        for k in range(6):
            for letters in itertools.product(range(1, 5), repeat=k):
                word = Word(letters, 5)
                expected = outcome(canonical_from_word_checked, word)
                assert outcome(canonical_from_word, word) == expected, letters
