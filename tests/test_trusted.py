"""Checks happen once, at the boundary.

Public constructors, parsers and the library functions that take outside
arguments reject bad input with the same exception and message as before.
Library results that are valid by construction are built with ``_trusted``,
which runs no checks.  The harness below keeps that honest: it routes every
``_trusted`` build through the checked constructor as well, and reruns the
differential checks of ``test_fast_paths`` under it."""

import itertools
from collections import Counter

import pytest

from boolrsk import (
    BinaryWord,
    CanonicalWord,
    DomainError,
    Heap,
    Permutation,
    RunWord,
    Shape,
    StandardTableau,
    Word,
    all_permutations,
    all_reduced_words,
    apply_ulam_move,
    binary_word_from_tableau,
    commutation_class,
    count_uncrowded,
    count_uncrowded_range,
    identity,
    linear_extensions,
    odd_run_words,
    realize_leftmost_letters,
    rsk,
    shape_of,
    tableau_from_binary_word,
)
from boolrsk._value import Value
from boolrsk.rsk import partial_insertion
from boolrsk.runstat import UlamMove

from oracles import binary_word_by_windows, reduced_word_count
import test_fast_paths as fast
from test_fast_paths import assert_run_word_and_moves_match_slow_paths, assert_step_matches_products

W, U = Permutation((2, 3, 1)), identity(4)

# (call, exception type, message): what each boundary raised before results
# were built without checks, and must still raise, and the messages that
# reject non-integer degrees, sizes, positions, values, parts, entries and bits
BOUNDARY = [
    pytest.param(
        lambda: list(all_permutations(0)), ValueError, "one-line notation must not be empty",
        id="all_permutations(0)",
    ),
    pytest.param(
        lambda: identity(0), ValueError, "one-line notation must not be empty", id="identity(0)"
    ),
    pytest.param(
        lambda: Permutation(()), ValueError, "one-line notation must not be empty",
        id="Permutation(())",
    ),
    pytest.param(lambda: W * U, ValueError, "cannot compose degrees 3 and 4", id="degrees 3 * 4"),
    pytest.param(lambda: U * W, ValueError, "cannot compose degrees 4 and 3", id="degrees 4 * 3"),
    pytest.param(
        lambda: apply_ulam_move(W, UlamMove(1, 9)), ValueError, "value 9 out of range 1..3",
        id="ulam move after a value not in w",
    ),
    pytest.param(
        lambda: apply_ulam_move(W, UlamMove(1, 2)), ValueError,
        "value 2 cannot be inserted after itself", id="ulam move after the moved value",
    ),
    *(
        pytest.param(
            lambda p=p: apply_ulam_move(W, UlamMove(p, None)), ValueError,
            f"position {p} out of range 1..3", id=f"ulam move from position {p}",
        )
        for p in (0, -1, 4)
    ),
    pytest.param(
        lambda: partial_insertion(W, 0), ValueError, "prefix length 0 out of range 1..3",
        id="partial_insertion(w, 0)",
    ),
    pytest.param(
        lambda: partial_insertion(W, 4), ValueError, "prefix length 4 out of range 1..3",
        id="partial_insertion(w, n + 1)",
    ),
    pytest.param(
        lambda: tableau_from_binary_word(BinaryWord((0, 1, 1))), DomainError,
        "011 has an even block of 1s", id="even block of 1s",
    ),
    pytest.param(
        lambda: realize_leftmost_letters((1, 9), 5), DomainError, "letter 9 out of range 1..4",
        id="realize a letter above n - 1",
    ),
    pytest.param(
        lambda: realize_leftmost_letters((0,), 5), DomainError, "letter 0 out of range 1..4",
        id="realize letter 0",
    ),
    pytest.param(
        lambda: list(linear_extensions(Heap(frozenset(), frozenset(), 0))), ValueError,
        "degree must be at least 1", id="linear extensions of an empty heap of degree 0",
    ),
    pytest.param(
        lambda: Heap(frozenset(), frozenset(), 0), ValueError, "degree must be at least 1",
        id="empty heap of degree 0",
    ),
    pytest.param(
        lambda: list(odd_run_words(0)), ValueError, "degree must be at least 1",
        id="odd_run_words(0)",
    ),
    pytest.param(
        lambda: CanonicalWord((), (), 0), ValueError, "degree must be at least 1",
        id="empty canonical word of degree 0",
    ),
    pytest.param(
        lambda: CanonicalWord((RunWord((1,)),), (), 0), ValueError, "letter 1 out of range 1..-1",
        id="canonical word of degree 0 with a letter",
    ),
    pytest.param(
        lambda: Word((1.5,), 3), ValueError, "letter 1.5 out of range 1..2", id="Word((1.5,), 3)"
    ),
    pytest.param(
        lambda: Word((1, 2.0), 4), ValueError, "letter 2.0 out of range 1..3",
        id="Word with an integral float letter",
    ),
    pytest.param(
        lambda: Word(("1",), 3), ValueError, "letter 1 out of range 1..2",
        id="Word with a string letter",
    ),
    pytest.param(
        lambda: RunWord((1.5, 2.5)), ValueError, "not a run: (1.5, 2.5)", id="RunWord((1.5, 2.5))"
    ),
    pytest.param(
        lambda: RunWord((2.0,)), ValueError, "not a run: (2.0,)", id="RunWord((2.0,))"
    ),
    pytest.param(
        lambda: RunWord((1, 2.0)), ValueError, "not a run: (1, 2.0)",
        id="RunWord with an integral float letter",
    ),
    pytest.param(
        lambda: Heap(frozenset({2.0}), frozenset(), 4), ValueError,
        "element 2.0 out of range 1..3", id="Heap with a float element",
    ),
    pytest.param(
        lambda: Heap(frozenset({1, 2.0}), frozenset({(1, 2.0)}), 4), ValueError,
        "element 2.0 out of range 1..3", id="Heap with a cover to a float element",
    ),
    pytest.param(
        lambda: Word((1,), 2.5), ValueError, "degree 2.5 is not an integer", id="Word((1,), 2.5)"
    ),
    pytest.param(
        lambda: Heap(frozenset(), frozenset(), 2.5), ValueError, "degree 2.5 is not an integer",
        id="empty heap of degree 2.5",
    ),
    pytest.param(
        lambda: CanonicalWord((), (), 2.5), ValueError, "degree 2.5 is not an integer",
        id="empty canonical word of degree 2.5",
    ),
    pytest.param(
        lambda: Shape((1.5,)), ValueError, "parts (1.5,) not all integers", id="Shape((1.5,))"
    ),
    pytest.param(
        lambda: Shape(("a",)), ValueError, "parts ('a',) not all integers", id="Shape(('a',))"
    ),
    pytest.param(
        lambda: StandardTableau(((1.5, 2),)), ValueError, "entries must be integers",
        id="StandardTableau(((1.5, 2),))",
    ),
    pytest.param(
        lambda: Permutation((2, 1))(1.5), ValueError, "position 1.5 out of range 1..2",
        id="w(1.5)",
    ),
    pytest.param(
        lambda: Permutation((2, 1)).position_of(1.5), ValueError, "value 1.5 out of range 1..2",
        id="position_of(1.5)",
    ),
    pytest.param(
        lambda: apply_ulam_move(W, UlamMove(1.5, None)), ValueError,
        "position 1.5 out of range 1..3", id="ulam move from position 1.5",
    ),
    pytest.param(
        lambda: apply_ulam_move(Permutation((2, 1, 3)), UlamMove(1, 2.5)), ValueError,
        "value 2.5 out of range 1..3", id="ulam move after value 2.5",
    ),
    pytest.param(
        lambda: partial_insertion(W, 1.5), ValueError, "prefix length 1.5 out of range 1..3",
        id="partial_insertion(w, 1.5)",
    ),
    pytest.param(
        lambda: list(odd_run_words(2.5)), ValueError, "degree 2.5 is not an integer",
        id="odd_run_words(2.5)",
    ),
    pytest.param(
        lambda: count_uncrowded(2.5), ValueError, "degree 2.5 is not an integer",
        id="count_uncrowded(2.5)",
    ),
    pytest.param(
        lambda: list(count_uncrowded_range(1, 2.5)), ValueError, "degree 2.5 is not an integer",
        id="count_uncrowded_range(1, 2.5)",
    ),
    pytest.param(
        lambda: realize_leftmost_letters((1,), 2.5), ValueError, "degree 2.5 is not an integer",
        id="realize at degree 2.5",
    ),
    pytest.param(
        lambda: realize_leftmost_letters((1.5,), 5), DomainError, "letter 1.5 out of range 1..4",
        id="realize letter 1.5",
    ),
    pytest.param(
        lambda: BinaryWord((1.0,)), ValueError, "bits must be 0 or 1", id="BinaryWord((1.0,))"
    ),
]


@pytest.mark.parametrize("call, kind, message", BOUNDARY)
def test_the_boundary_rejects_as_before(call, kind, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is kind
    assert str(caught.value) == message


def test_a_bool_degree_passes_as_an_integer_does():
    # as Permutation takes bool entries: bool is a subclass of int
    assert Word((), True).n is True
    assert Heap(frozenset(), frozenset(), True).n is True
    assert CanonicalWord((), (), True).n is True
    assert CanonicalWord((), (), True).word.n is True
    assert partial_insertion(W, True).rows == ((2,),)
    assert [word.bits for word in odd_run_words(True)] == [()]
    assert count_uncrowded(True).total == list(count_uncrowded_range(True, True))[0].total == 1
    assert realize_leftmost_letters((), True).n is True
    assert realize_leftmost_letters((True,), 3).inc_runs == (RunWord((1, 2)),)
    assert BinaryWord((True, False)).bits == (True, False)


@pytest.fixture
def checked_builds(monkeypatch):
    """Make each ``_trusted`` build also build its value through the checked
    constructor, which must accept the fields and store equal ones of the
    identical type.  Returns the count of checked builds per class name."""
    built = Counter()

    def checking(trusted):
        def build(cls, *fields):
            value = trusted(cls, *fields)
            try:
                twin = cls(*fields)
            except ValueError as exc:
                pytest.fail(f"{cls.__name__}{fields!r} fails its checks: {exc}")
            assert vars(value).keys() == vars(twin).keys()
            for name, field in vars(value).items():
                other = vars(twin)[name]
                assert type(field) is type(other), (cls.__name__, name, type(field))
                assert field == other, (cls.__name__, name)
            built[cls.__name__] += 1
            return value

        return classmethod(build)

    # CanonicalWord, the one dataclass, inherits ``_trusted`` from Value too
    monkeypatch.setattr(Value, "_trusted", checking(Value._trusted.__func__))
    return built


def test_the_harness_catches_a_bad_build(checked_builds):
    with pytest.raises(pytest.fail.Exception, match="duplicate value 1"):
        Permutation._trusted((1, 1))
    with pytest.raises(AssertionError):
        Permutation._trusted([2, 1])  # the checked constructor stores a tuple
    assert Permutation._trusted((2, 1)) == Permutation((2, 1))
    assert checked_builds == {"Permutation": 1}


def permutations_up_to(n):
    return itertools.chain.from_iterable(all_permutations(k) for k in range(1, n + 1))


def test_step_map_on_s1_to_s7(checked_builds):
    for w in permutations_up_to(7):
        if not w.is_identity():
            assert_step_matches_products(w)
    assert checked_builds.keys() >= {"Permutation", "RunWord"}


def test_run_words_and_ulam_moves_on_s1_to_s7(checked_builds):
    for w in permutations_up_to(7):
        assert_run_word_and_moves_match_slow_paths(w, check_ulam_sort=w.n < 7)
    assert checked_builds.keys() >= {"Permutation", "RunWord"}


def test_reduced_words_by_moves_up_to_degree_5(checked_builds):
    for w in permutations_up_to(5):
        words = all_reduced_words(w)
        assert len(set(words)) == len(words) == reduced_word_count(w.entries), w
        commuting = commutation_class(words[0])
        assert words[0] in commuting and set(commuting) <= set(words), w
        assert (w.inverse() * w).is_identity()
    assert checked_builds.keys() >= {"Word", "Permutation"}


# (class in test_fast_paths, differential test, the classes it must build
# through ``_trusted``); the other exhaustive checks there that run to S_8
# are repeated above on S_1..S_7
RERUN = [
    (fast.TestSharedBooleanTest, "test_every_permutation_up_to_degree_8",
     {"Heap", "CanonicalWord", "RunWord"}),
    (fast.TestRunStep, "test_random_near_sorted_and_decreasing_degrees_100_to_500",
     {"Permutation", "RunWord"}),
    (fast.TestRunWordAndUlamMoves, "test_random_degrees_50_to_300", {"Permutation", "RunWord"}),
    (fast.TestRunWordAndUlamMoves, "test_near_sorted_degrees_50_to_300",
     {"Permutation", "RunWord"}),
    (fast.TestInsertion, "test_every_permutation_up_to_degree_7", {"StandardTableau"}),
    (fast.TestInsertion, "test_random_decreasing_and_boolean_of_degree_500",
     {"StandardTableau"}),
    (fast.TestCanonicalFromHeap, "test_every_boolean_permutation_up_to_degree_7",
     {"Heap", "CanonicalWord", "RunWord"}),
    (fast.TestCanonicalFromHeap, "test_full_and_partial_support_degrees_100_to_500",
     {"Heap", "CanonicalWord", "RunWord"}),
    (fast.TestOrientationScan, "test_every_boolean_permutation_up_to_degree_8",
     {"Heap", "Word", "CanonicalWord", "RunWord"}),
    (fast.TestLinearExtensions, "test_every_boolean_heap_up_to_degree_7", {"Heap", "Word"}),
    (fast.TestRecursionFree, "test_odd_run_words_match_filtering", {"BinaryWord"}),
    (fast.TestRecursionFree, "test_realize_matches_recursive_construction",
     {"CanonicalWord", "RunWord"}),
    (fast.TestBinaryWordDecoding, "test_matches_window_scan_on_long_words",
     {"BinaryWord", "StandardTableau"}),
]


@pytest.mark.parametrize(
    "cls, name, classes", RERUN, ids=[f"{cls.__name__}.{name}" for cls, name, _ in RERUN]
)
def test_differential_checks_under_checked_builds(checked_builds, cls, name, classes):
    getattr(cls(), name)()
    assert checked_builds.keys() >= classes


@pytest.mark.parametrize("n", [100, 250, 500])
def test_canonical_words_at_degree_under_checked_builds(checked_builds, n):
    fast.TestOrientationScan().test_seeded_degrees_at_60_and_100_percent_support(n)
    fast.TestOrientationScan().test_heap_of_matches_leftmost_descent_word(n)
    assert checked_builds.keys() >= {"Heap", "CanonicalWord", "RunWord"}


@pytest.mark.parametrize("n", [100, 250, 500, 1000, 2000])
def test_shared_boolean_test_at_degree_under_checked_builds(checked_builds, n):
    fast.TestSharedBooleanTest().test_seeded_boolean_and_3412_rejects(n)
    assert checked_builds.keys() >= {"Heap", "CanonicalWord", "RunWord"}


def test_bool_letters_stay_accepted():
    # as in Permutation, where True is the value 1
    assert Permutation((True,)).entries == (True,)
    assert Word((True, 2), 3).letters == (True, 2)
    assert RunWord((True, 2)).direction == "increasing"
    assert Heap(frozenset({True}), frozenset(), 2).elements == {1}


def test_bijection_up_to_size_12(checked_builds):
    for n in range(1, 13):
        for word in odd_run_words(n):
            tableau = tableau_from_binary_word(word)
            assert binary_word_from_tableau(tableau) == word
            assert binary_word_by_windows(tableau) == word.bits
    assert checked_builds.keys() >= {"BinaryWord", "StandardTableau"}


def test_shape_of_on_s1_to_s7(checked_builds):
    for w in permutations_up_to(7):
        assert shape_of(w) == rsk(w)[0].shape()
    assert checked_builds.keys() >= {"Shape", "StandardTableau"}
