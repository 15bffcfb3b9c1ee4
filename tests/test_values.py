"""The value types: construction, validation, equality, hashing, repr,
immutability, and pickle and copy round trips.

The reprs and messages below are those the types had as frozen dataclasses;
all but ``CanonicalWord`` are plain classes now."""

import copy
import dataclasses
import inspect
import pickle
import random
import re
from collections import Counter

import pytest

from boolrsk._value import Value
from boolrsk.acceptance import Criterion
from boolrsk.canonical import CanonicalWord
from boolrsk.errors import ParseError
from boolrsk.permutation import Permutation, Subsequence
from boolrsk.rsk import Shape, StandardTableau
from boolrsk.runstat import RunStep, UlamMove
from boolrsk.textio import parse_permutation
from boolrsk.words import BinaryWord, Heap, RunWord, Word

from oracles import canonical_word_error_by_prepass, standard_tableau_error_by_prepass

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


def test_values_built_from_mutable_containers_keep_frozen_copies():
    from boolrsk import canonical_from_heap

    elements, covers, dec, inc, positions, values = {1, 2}, {(1, 2)}, [RunWord((1,))], [], [1], [2]
    pairs = [
        (Heap(elements, covers, 3), Heap(frozenset({1, 2}), frozenset({(1, 2)}), 3)),
        (CanonicalWord(dec, inc, 3), CanonicalWord((RunWord((1,)),), (), 3)),
        (Subsequence(positions, values), Subsequence((1,), (2,))),
    ]
    elements.add(5)
    covers.add((2, 3))
    dec.append(RunWord((2,)))
    inc.append(RunWord((2, 3)))
    positions.append(3)
    values.append(4)
    for value, twin in pairs:
        assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
    assert canonical_from_heap(pairs[0][0]) == canonical_from_heap(pairs[0][1])


def test_no_inverse_table_is_kept():
    w = Permutation((3, 1, 2))
    assert w.inverse() == Permutation((2, 3, 1))
    assert w.lex_least_lis() == Subsequence((2, 3), (1, 2))
    assert vars(w) == {"entries": (3, 1, 2)}
    assert w == Permutation((3, 1, 2)) and hash(w) == hash(Permutation((3, 1, 2)))
    assert vars(pickle.loads(pickle.dumps(w))) == {"entries": (3, 1, 2)}


@pytest.mark.parametrize(
    "letters", [range(3, 7), range(8, 6, -1), range(5, 6), range(5, 4, -1)], ids=repr
)
def test_a_range_run_equals_the_tuple_run(letters):
    run, twin = RunWord(letters), RunWord(tuple(letters))
    assert type(run.letters) is tuple
    assert run == twin and hash(run) == hash(twin) and repr(run) == repr(twin)
    assert run.reversed() == RunWord(tuple(letters)[::-1])


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
    (RunWord, (range(1, 8, 2),), "not a run: (1, 3, 5, 7)"),
    (RunWord, (range(3, 3),), "run must be nonempty"),
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


def test_canonical_word_is_a_value_and_still_a_dataclass():
    # the README promises dataclasses.replace, fields and asdict on CanonicalWord
    word = CanonicalWord(runs((2, 1)), runs((3, 4)), 5)
    assert isinstance(word, Value) and dataclasses.is_dataclass(word)
    assert [f.name for f in dataclasses.fields(word)] == ["dec_runs", "inc_runs", "n"]
    assert dataclasses.asdict(word) == {"dec_runs": runs((2, 1)), "inc_runs": runs((3, 4)), "n": 5}
    assert dataclasses.replace(word, inc_runs=()) == CanonicalWord(runs((2, 1)), (), 5)
    with pytest.raises(ValueError, match="^letter 3 out of range 1..2$"):
        dataclasses.replace(word, n=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        word.n = 6
    assert CanonicalWord._trusted(*dataclasses.astuple(word)) == word


def broken_canonical_fields(rng, dec, inc, n, rule):
    """The fields of a valid canonical word with ``rule`` broken, or None when
    the word has no runs to break it with."""
    dec, inc = list(dec), list(inc)
    letters = [a for run in dec + inc for a in run.letters]
    if rule == "degree not an integer":
        n += 0.5
    elif rule == "letter out of range":
        if letters and rng.random() < 0.5:
            n = max(letters)
        else:
            dec.insert(0, RunWord((0,)))
    elif rule == "letter repeated":
        if not letters:
            return None
        side = rng.choice((dec, inc))
        side.insert(rng.randint(0, len(side)), RunWord((rng.choice(letters),)))
    elif rule == "increasing run in the decreasing list":
        long_dec = [k for k, run in enumerate(dec) if len(run) > 1]
        if long_dec:
            k = rng.choice(long_dec)
            dec[k] = dec[k].reversed()
        elif any(len(run) > 1 for run in inc):
            dec.append(inc.pop(rng.choice([k for k, run in enumerate(inc) if len(run) > 1])))
        else:
            return None
    elif rule == "run not ascending in the increasing list":
        long_inc = [k for k, run in enumerate(inc) if len(run) > 1]
        if long_inc and rng.random() < 0.5:
            k = rng.choice(long_inc)
            inc[k] = inc[k].reversed()
        elif dec:
            inc.insert(rng.randint(0, len(inc)), dec.pop(rng.randrange(len(dec))))
        else:
            return None
    elif rule == "decreasing runs out of order":
        if len(dec) < 2:
            return None
        i, j = sorted(rng.sample(range(len(dec)), 2))
        dec[i], dec[j] = dec[j], dec[i]
    elif rule == "increasing runs out of order":
        if len(inc) < 2:
            return None
        i, j = sorted(rng.sample(range(len(inc)), 2))
        inc[i], inc[j] = inc[j], inc[i]
    else:  # "degree below 1"
        n = rng.choice((0, -1, -4))
    return tuple(dec), tuple(inc), n


CANONICAL_RULES = [
    "degree not an integer", "letter out of range", "letter repeated",
    "increasing run in the decreasing list", "run not ascending in the increasing list",
    "decreasing runs out of order", "increasing runs out of order", "degree below 1",
]


def test_canonical_checks_match_the_prepass_checks():
    # each field set breaks one rule alone or two at once; the one loop per
    # rule names the violation the set and map passes named
    from boolrsk import canonical_from_heap, evaluate, heap_of

    rng = random.Random(2020)
    messages, cases = Counter(), 0
    while cases < 300:
        n = rng.randint(2, 24)
        letters = rng.sample(range(1, n), rng.randint(0, n - 1))
        c = canonical_from_heap(heap_of(evaluate(Word(tuple(letters), n))))
        assert canonical_word_error_by_prepass(c.dec_runs, c.inc_runs, c.n) is None
        fields = (c.dec_runs, c.inc_runs, c.n)
        for rule in rng.sample(CANONICAL_RULES, rng.randint(1, 2)):
            fields = broken_canonical_fields(rng, *fields, rule)
            if fields is None:
                break
        if fields is None:
            continue
        expected = canonical_word_error_by_prepass(*fields)
        assert expected is not None, fields
        with pytest.raises(ValueError) as caught:
            CanonicalWord(*fields)
        assert str(caught.value) == expected, fields
        messages[re.sub(r"[-\d.]+|\([^)]*\)", "#", expected)] += 1
        cases += 1
    # every message form turns up
    assert len(messages) == 8, messages


def broken_tableau_rows(rng, rows, rule):
    """The rows of a standard tableau with ``rule`` broken, or None when the
    tableau is too small to break it."""
    rows = [list(row) for row in rows]
    row = rng.choice([row for row in rows if row])
    k = rng.randrange(len(row))
    if rule == "empty row":
        rows.insert(rng.randint(1, len(rows)), [])
    elif rule == "entry not an integer":
        row[k] += rng.choice((0.5, 0.0))
    elif rule == "row lengths rise":
        rows.append([1000 + i for i in range(len(rows[-1]) + 1)])
    elif rule == "column does not rise":
        lower = [r for r in range(1, len(rows)) if rows[r - 1] and rows[r]]
        if not lower:
            return None
        r = rng.choice(lower)
        k = rng.randrange(min(len(rows[r - 1]), len(rows[r])))
        rows[r - 1][k], rows[r][k] = rows[r][k], rows[r - 1][k]
    elif rule == "row does not rise":
        if len(row) < 2:
            return None
        k = rng.randrange(len(row) - 1)
        row[k], row[k + 1] = row[k + 1], row[k]
    elif rule == "entries repeat":
        entries = [v for r in rows for v in r]
        if len(entries) < 2:
            return None
        row[k] = rng.choice([v for v in entries if v != row[k]])
    else:  # "entry below 1"
        shift = rng.randint(1, 3)
        rows = [[v - shift for v in r] for r in rows]
    return tuple(map(tuple, rows))


TABLEAU_RULES = [
    "empty row", "entry not an integer", "row lengths rise", "column does not rise",
    "row does not rise", "entries repeat", "entry below 1",
]


def test_tableau_checks_match_the_prepass_checks():
    from boolrsk import rsk

    rng = random.Random(1917)
    messages, cases = Counter(), 0
    while cases < 300:
        entries = list(range(1, rng.randint(2, 14)))
        rng.shuffle(entries)
        rows = rsk(Permutation(tuple(entries)))[rng.randrange(2)].rows
        assert standard_tableau_error_by_prepass(rows) is None
        for rule in rng.sample(TABLEAU_RULES, rng.randint(1, 2)):
            rows = broken_tableau_rows(rng, rows, rule)
            if rows is None:
                break
        if rows is None or standard_tableau_error_by_prepass(rows) is None:
            continue  # the second change undid the first
        with pytest.raises(ValueError) as caught:
            StandardTableau(rows)
        assert str(caught.value) == standard_tableau_error_by_prepass(rows), rows
        messages[re.sub(r"[-\d.]+|\([^)]*\)", "#", str(caught.value))] += 1
        cases += 1
    assert len(messages) == 7, messages


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
