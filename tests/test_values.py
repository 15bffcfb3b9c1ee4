"""The value types: construction, validation, equality, hashing, repr,
immutability, and pickle and copy round trips.

The reprs and messages below are those the types had as frozen dataclasses;
all but ``CanonicalWord`` are plain classes now."""

import copy
import inspect
import pickle
import re

import pytest

from boolrsk.acceptance import Criterion
from boolrsk.canonical import CanonicalWord
from boolrsk.errors import ParseError
from boolrsk.permutation import Permutation, Subsequence
from boolrsk.rsk import Shape, StandardTableau
from boolrsk.runstat import RunStep, UlamMove
from boolrsk.textio import parse_permutation
from boolrsk.words import BinaryWord, Heap, RunWord, Word

# (class, field values, repr)
VALUES = [
    (Subsequence, ((1, 3), (2, 4)), "Subsequence(positions=(1, 3), values=(2, 4))"),
    (Permutation, ((2, 4, 1, 3),), "Permutation(entries=(2, 4, 1, 3))"),
    (Word, ((2, 1, 3), 4), "Word(letters=(2, 1, 3), n=4)"),
    (RunWord, ((3, 2),), "RunWord(letters=(3, 2))"),
    (BinaryWord, ((1, 0, 1),), "BinaryWord(bits=(1, 0, 1))"),
    (
        Heap,
        (frozenset({1, 2}), frozenset({(2, 1)}), 3),
        "Heap(elements=frozenset({1, 2}), covers=frozenset({(2, 1)}), n=3)",
    ),
    (Shape, ((2, 1),), "Shape(parts=(2, 1))"),
    (StandardTableau, (((1, 3), (2,)),), "StandardTableau(rows=((1, 3), (2,)))"),
    (
        RunStep,
        (Permutation((1, 2)), RunWord((1,)), "right", "missing-value-is-1"),
        "RunStep(result=Permutation(entries=(1, 2)), run=RunWord(letters=(1,)), "
        "side='right', case='missing-value-is-1')",
    ),
    (UlamMove, (2, None), "UlamMove(from_position=2, insert_after_value=None)"),
    (
        Criterion,
        (1, "t", 30.0, len),
        "Criterion(number=1, title='t', budget_seconds=30.0, check=<built-in function len>)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


def build(cls, values):
    return cls(*values)


def field_names(cls):
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls, values, text", VALUES, ids=IDS)
class TestContract:
    def test_positional_and_keyword_construction_agree(self, cls, values, text):
        by_keyword = cls(**dict(zip(field_names(cls), values)))
        assert by_keyword == build(cls, values)
        assert tuple(getattr(by_keyword, name) for name in field_names(cls)) == values

    def test_repr(self, cls, values, text):
        assert repr(build(cls, values)) == text

    def test_equal_values_hash_equal_and_key_sets_and_dicts(self, cls, values, text):
        a, b = build(cls, values), build(cls, values)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: "first"}[b] == "first"

    def test_equality_holds_within_one_class_only(self, cls, values, text):
        value = build(cls, values)
        assert value != values and value != values[0]
        assert value.__eq__(values) is NotImplemented
        others = [build(c, v) for c, v, _ in VALUES if c is not cls]
        assert all(value != other for other in others)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, values, text):
        value = build(cls, values)
        for name in (*field_names(cls), "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
        for name in field_names(cls):
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert value == build(cls, values)

    @pytest.mark.parametrize(
        "clone",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, cls, values, text, clone):
        value = build(cls, values)
        twin = clone(value)
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_a_different_field_value_is_unequal():
    assert Word((1,), 3) != Word((1,), 4)
    assert Heap(frozenset({1}), frozenset(), 3) != Heap(frozenset({1}), frozenset(), 4)
    assert UlamMove(2, None) != UlamMove(2, 1)


def test_a_sequence_field_becomes_a_tuple():
    assert Permutation([2, 1]).entries == (2, 1)
    assert Word([1], 3).letters == (1,)
    assert RunWord(iter([4, 5])).letters == (4, 5)
    assert BinaryWord([0, 1]).bits == (0, 1)
    assert Shape([2, 2]).parts == (2, 2)
    assert StandardTableau([[1, 2], [3]]).rows == ((1, 2), (3,))
    assert Permutation([2, 1]) == Permutation((2, 1))


def test_positions_are_computed_once():
    w = Permutation((3, 1, 2))
    assert "_positions" not in vars(w)
    positions = w._positions
    assert positions == (2, 3, 1)
    assert w._positions is positions and vars(w)["_positions"] is positions
    assert w.inverse() == Permutation((2, 3, 1))
    assert w == Permutation((3, 1, 2)) and hash(w) == hash(Permutation((3, 1, 2)))
    assert pickle.loads(pickle.dumps(w))._positions == positions


# (class, field values, the ValueError message)
INVALID = [
    (Permutation, ((),), "one-line notation must not be empty"),
    (Permutation, ((1, 3),), "value 3 out of range 1..2"),
    (Permutation, ((1, 1.0),), "value 1.0 out of range 1..2"),
    (Permutation, ((2, 2),), "duplicate value 2"),
    (Permutation, ((3, 3, 4),), "duplicate value 3"),
    (Permutation, ((1, 4, 4),), "value 4 out of range 1..3"),
    (Word, ((1,), 0), "degree must be at least 1"),
    (Word, ((1, 3), 3), "letter 3 out of range 1..2"),
    (Word, ((3, 1, 4), 3), "letter 3 out of range 1..2"),
    (Word, ((6, 1, 7), 5), "letter 6 out of range 1..4"),
    (RunWord, ((),), "run must be nonempty"),
    (RunWord, ((1, 2, 1),), "not a run: (1, 2, 1)"),
    (RunWord, ((1, 3),), "not a run: (1, 3)"),
    (BinaryWord, ((0, 2),), "bits must be 0 or 1"),
    (Heap, ({1, 3}, {(1, 3)}, 5), "cover (1, 3) does not relate consecutive letters"),
    (Heap, (frozenset({1}), frozenset({(1, 2)}), 5), "cover (1, 2) outside the element set"),
    (Heap, (frozenset({1, 2}), frozenset({(1, 2), (2, 1)}), 5), "both orientations present for {"),
    (Heap, (frozenset({4}), frozenset(), 4), "element 4 out of range 1..3"),
    (Shape, ((1, 2),), "parts (1, 2) not weakly decreasing"),
    (Shape, ((1, 0),), "parts must be positive"),
    (StandardTableau, ((),), "rows must be nonempty"),
    (StandardTableau, (((1,), ()),), "rows must be nonempty"),
    (StandardTableau, (((1,), (2, 3)),), "row lengths must weakly decrease"),
    (StandardTableau, (((2, 3), (1,)),), "column not increasing: 2 above 1"),
    (StandardTableau, (((1, 3), (2, 2)),), "column not increasing: 3 above 2"),
    (StandardTableau, (((1, 3, 4), (2, 2)),), "column not increasing: 3 above 2"),
    (StandardTableau, (((3, 1),),), "row not increasing: (3, 1)"),
    (StandardTableau, (((1, 2), (5, 4)),), "row not increasing: (5, 4)"),
    (StandardTableau, (((1, 2), (3,), (3,)),), "column not increasing: 3 above 3"),
    (StandardTableau, (((1, 2, 3), (3,)),), "entries must be distinct"),
    (StandardTableau, (((0, 1),),), "entries must be positive"),
    (StandardTableau, (((1, 4, 5), (2, 3, 4)),), "column not increasing: 4 above 3"),
    (StandardTableau, (((1, 2), (4, 3), (6, 5)),), "row not increasing: (4, 3)"),
]


def runs(*letter_tuples):
    return tuple(RunWord(letters) for letters in letter_tuples)


# (CanonicalWord, its fields, the ValueError message); where an input breaks a
# rule more than once, the message names the first violation
CANONICAL_INVALID = [
    (CanonicalWord, (runs((5,), (7,)), (), 4), "letter 5 out of range 1..3"),
    (CanonicalWord, (runs((2, 1)), runs((3, 4)), 4), "letter 4 out of range 1..3"),
    (CanonicalWord, (runs((1, 0)), (), 4), "letter 0 out of range 1..3"),
    (CanonicalWord, (runs((1,), (1,), (9,)), (), 5), "letter 1 repeated across runs"),
    (CanonicalWord, (runs((2, 1)), runs((2, 3)), 5), "letter 2 repeated across runs"),
    (CanonicalWord, (runs((2, 1), (4, 3)), runs((3,)), 5), "letter 3 repeated across runs"),
    (
        CanonicalWord,
        (runs((3,), (1, 2), (5, 6)), (), 7),
        "increasing run (1, 2) in the decreasing list",
    ),
    (
        CanonicalWord,
        ((), runs((6,), (5, 4), (2,)), 7),
        "run (6,) in the increasing list must ascend",
    ),
    (
        CanonicalWord,
        (runs((3,), (1,)), (), 5),
        "decreasing runs must be ordered smaller letters first",
    ),
    (
        CanonicalWord,
        ((), runs((1, 2), (4, 5)), 7),
        "increasing runs must be ordered larger letters first",
    ),
]


def message_ids(rows):
    """An id per row, unique by construction: the first 40 characters of the
    message, and for the k-th row (k > 1) whose message starts the same way,
    that prefix followed by the class name and k.  A new row placed after the
    rows that share its prefix renames no existing test."""
    ids = []
    taken: dict[str, int] = {}
    for cls, _, message in rows:
        prefix = message[:40]
        taken[prefix] = k = taken.get(prefix, 0) + 1
        ids.append(prefix if k == 1 else f"{prefix} ({cls.__name__} #{k})")
    return ids


MESSAGE_IDS = message_ids(INVALID + CANONICAL_INVALID)


def test_validation_message_ids_are_unique():
    assert len(set(MESSAGE_IDS)) == len(MESSAGE_IDS)
    assert {"letter 3 out of range 1..2", "letter 3 out of range 1..2 (Word #2)"} <= set(MESSAGE_IDS)


@pytest.mark.parametrize("cls, values, message", INVALID + CANONICAL_INVALID, ids=MESSAGE_IDS)
def test_validation_messages(cls, values, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        cls(*values)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        cls(**dict(zip(field_names(cls), values)))


# (text, the ParseError message, its token position)
PARSE_INVALID = [
    ("", "empty permutation", None),
    ("1 x 3", "not an integer: 'x' (at token 2)", 2),
    ("3 3 4", "duplicate value 3 (at token 2)", 2),
    ("1 4 4", "value 4 out of range 1..3 (at token 2)", 2),
    ("2, 1, 0, 0", "value 0 out of range 1..4 (at token 3)", 3),
    pytest.param(
        " ".join(map(str, range(1, 101))) + " x 7",
        "not an integer: 'x' (at token 101)",
        101,
        id="x after 100 integers",
    ),
    ("1 2 3.0", "not an integer: '3.0' (at token 3)", 3),
    ("1 -2 3", "value -2 out of range 1..3 (at token 2)", 2),
    ("3 1 2-1", "not an integer: '2-1' (at token 3)", 3),
]


@pytest.mark.parametrize("text, message, position", PARSE_INVALID)
def test_parse_permutation_names_the_first_bad_token(text, message, position):
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$") as caught:
        parse_permutation(text)
    assert caught.value.position == position
