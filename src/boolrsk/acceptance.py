"""The acceptance suite: exhaustive desk-scale checks behind `boolrsk selftest`.

Each criterion is a function that either returns a short detail string or
raises AssertionError.  The oracles here (patience sorting for subsequence
lengths, direct subset enumeration for uncrowded families, run peeling for
the canonical word, a minimum over all reduced words for the run statistic)
are deliberately separate code paths from the library implementations they
check.
"""

from __future__ import annotations

import bisect
import io
import itertools
import math
import sys
import time
from collections.abc import Callable, Sequence
from contextlib import redirect_stdout
from importlib import resources

from ._value import Value
from .canonical import CanonicalWord, canonical_from_heap, canonical_from_word
from .errors import DegreeLimitError
from .permutation import Permutation, all_permutations, boolean_permutations
from .rsk import StandardTableau, row2_from_canonical, rsk, shape_of
from .runstat import run_statistic, run_step
from .uncrowded import (
    binary_word_from_tableau,
    count_uncrowded,
    is_feasible_second_row,
    is_uncrowded,
    odd_run_words,
    tableau_from_binary_word,
)
from .words import RunWord, Word, all_reduced_words, heap_of, linear_extensions, run_decomposition

TOTALS_1_TO_10 = (1, 2, 3, 6, 10, 19, 33, 61, 108, 197)
MAX_IN_ROW2_1_TO_10 = (0, 1, 1, 3, 4, 9, 14, 28, 47, 89)
BRUTE_FORCE_DEGREE_LIMIT = 6


def lis_length_patience(values: Sequence[int]) -> int:
    """Longest increasing subsequence length by patience sorting."""
    tails: list[int] = []
    for v in values:
        k = bisect.bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
        else:
            tails[k] = v
    return len(tails)


def lds_length_patience(values: Sequence[int]) -> int:
    return lis_length_patience([-v for v in values])


def brute_force_run(w: Permutation) -> int:
    """Minimum run count over every reduced word of w; the independent oracle
    for run_statistic, guarded to small degrees."""
    if w.n > BRUTE_FORCE_DEGREE_LIMIT:
        raise DegreeLimitError(
            f"degree {w.n} exceeds the brute-force limit {BRUTE_FORCE_DEGREE_LIMIT}"
        )
    return min(len(run_decomposition(word)) for word in all_reduced_words(w))


def canonical_by_peeling(word: Word) -> CanonicalWord:
    """The canonical word of a reduced word with distinct letters, by peeling
    runs off the word itself rather than scanning its heap.

    Take the smallest letter a.  If a+1 is absent, peel the singleton a to the
    left.  If a+1 sits left of a, peel the longest decreasing run b..a (each
    letter left of its predecessor) to the left.  If a+1 sits right of a, peel
    the longest increasing run a..b to the right.  Repeat on what remains.
    """
    letters = list(word.letters)
    dec: list[RunWord] = []
    inc: list[RunWord] = []
    while letters:
        position = {a: i for i, a in enumerate(letters)}
        a = min(letters)
        if a + 1 not in position:
            dec.append(RunWord((a,)))
            b = a
        elif position[a + 1] < position[a]:
            b = a + 1
            while b + 1 in position and position[b + 1] < position[b]:
                b += 1
            dec.append(RunWord(tuple(range(b, a - 1, -1))))
        else:
            b = a + 1
            while b + 1 in position and position[b + 1] > position[b]:
                b += 1
            inc.insert(0, RunWord(tuple(range(a, b + 1))))
        consumed = set(range(a, b + 1))
        letters = [x for x in letters if x not in consumed]
    return CanonicalWord(tuple(dec), tuple(inc), word.n)


def uncrowded_tableaux(n: int) -> list[StandardTableau]:
    """All uncrowded tableaux of size n, by direct subset enumeration."""
    out = []
    candidates = range(2, n + 1)
    for size in range(0, n // 2 + 1):
        for picked in itertools.combinations(candidates, size):
            row2 = frozenset(picked)
            if not is_feasible_second_row(row2) or not is_uncrowded(row2):
                continue
            row1 = tuple(v for v in range(1, n + 1) if v not in row2)
            rows = (row1,) if not row2 else (row1, tuple(sorted(row2)))
            out.append(StandardTableau(rows))
    return out


def criterion_1() -> str:
    checked = 0
    for n in range(1, 8):
        for w in all_permutations(n):
            first_row = len(rsk(w)[0].rows[0])
            statistic = run_statistic(w)
            assert first_row + statistic == n, f"{w}: {first_row} + {statistic} != {n}"
            steps = 0
            u = w
            while not u.is_identity():
                u = run_step(u).result
                steps += 1
            assert steps == statistic, f"{w}: {steps} steps, statistic {statistic}"
            checked += 1
    return f"{checked} permutations"


def criterion_2() -> str:
    checked = 0
    for n in range(1, 6):
        for w in all_permutations(n):
            assert brute_force_run(w) == run_statistic(w), f"{w}"
            checked += 1
    return f"{checked} permutations"


def criterion_3() -> str:
    checked = 0
    for n in range(1, 9):
        for w in boolean_permutations(n):
            canonical = canonical_from_heap(heap_of(w))
            predicted_p, predicted_q = row2_from_canonical(canonical)
            p, q = rsk(w)
            assert len(p.rows) <= 2, f"{w}: more than two rows"
            assert predicted_p == frozenset(p.row2), f"{w}: insertion second row"
            assert predicted_q == frozenset(q.row2), f"{w}: recording second row"
            assert len(canonical.runs) == run_statistic(w), f"{w}: run count not optimal"
            checked += 1
    return f"{checked} boolean permutations"


def criterion_4() -> str:
    checked = 0
    for n in range(1, 8):
        for w in boolean_permutations(n):
            heap = heap_of(w)
            expected = canonical_from_heap(heap)
            for word in linear_extensions(heap):
                assert canonical_by_peeling(word) == expected, f"{w}: {word.letters}"
                assert canonical_from_word(word) == expected, f"{w}: {word.letters}"
                checked += 1
    return f"{checked} reduced words"


GOLDEN_CASES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("words_314569278", ("words", "3 1 4 5 6 9 2 7 8")),
    ("rho_342516", ("rho", "3 4 2 5 1 6")),
    ("rho_142563", ("rho", "1 4 2 5 6 3")),
    ("rho_51642738", ("rho", "5 1 6 4 2 7 3 8")),
    ("run_51642738", ("run", "5 1 6 4 2 7 3 8")),
    ("ulam_51642738", ("ulam", "5 1 6 4 2 7 3 8")),
    ("canonical_314627A589", ("canonical", "3 1 4 6 2 7 10 5 8 9")),
    ("canonical_231548697BA", ("canonical", "2 3 1 5 4 8 6 9 7 11 10")),
    ("canonical_word_259136847", ("canonical", "--from-word", "2 5 9 1 3 6 8 4 7")),
    ("canonical_word_471A268", ("canonical", "--from-word", "4 7 1 10 2 6 8")),
    ("heap_314569278", ("heap", "3 1 4 5 6 9 2 7 8")),
    ("heap_231548697BA", ("heap", "2 3 1 5 4 8 6 9 7 11 10")),
    ("rsk_314627A589", ("rsk", "3 1 4 6 2 7 10 5 8 9")),
    ("bij_f_18", ("bij", "f", "10010101111101110")),
    ("bij_g_18", ("bij", "g", "1 2 3 6 7 9 12 14 16 17 / 4 5 8 10 11 13 15 18")),
)


def capture_cli(argv: Sequence[str]) -> str:
    from . import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    assert code == 0, f"CLI {argv} exited with {code}"
    return buffer.getvalue()


def criterion_5() -> str:
    folder = resources.files("boolrsk").joinpath("golden")
    for name, argv in GOLDEN_CASES:
        expected = folder.joinpath(f"{name}.txt").read_text(encoding="utf-8")
        actual = capture_cli(argv)
        assert actual == expected, f"golden mismatch for {name}"
    return f"{len(GOLDEN_CASES)} golden outputs"


def criterion_6() -> str:
    words_checked = 0
    for n in range(1, 15):
        words = list(odd_run_words(n))
        seen_tableaux = set()
        for x in words:
            tableau = tableau_from_binary_word(x)
            assert binary_word_from_tableau(tableau) == x, f"n={n}, word {x}"
            seen_tableaux.add(tableau)
        tableaux = uncrowded_tableaux(n)
        assert len(words) == len(set(words)) == count_uncrowded(n).total, f"n={n}: counts"
        assert seen_tableaux == set(tableaux), f"n={n}: image of the word map"
        for tableau in tableaux:
            assert tableau_from_binary_word(binary_word_from_tableau(tableau)) == tableau
        words_checked += len(words)
    for n in range(1, 11):
        counts = count_uncrowded(n)
        assert counts.total == TOTALS_1_TO_10[n - 1], f"n={n}: total {counts.total}"
        assert counts.two_row == TOTALS_1_TO_10[n - 1] - 1, f"n={n}: two-row"
        assert counts.max_in_row2 == MAX_IN_ROW2_1_TO_10[n - 1], f"n={n}: max-in-row2"
    return f"{words_checked} words round-tripped"


def criterion_7() -> str:
    for n in range(1, 9):
        actual_p = {frozenset(rsk(w)[0].row2) for w in boolean_permutations(n)}
        actual_q = {frozenset(rsk(w)[1].row2) for w in boolean_permutations(n)}
        predicted = set()
        for size in range(0, n // 2 + 1):
            for picked in itertools.combinations(range(2, n + 1), size):
                shifted = {x - 1 for x in picked} | {0}
                if is_feasible_second_row(picked) and is_uncrowded(shifted):
                    predicted.add(frozenset(picked))
        assert actual_p == predicted, f"n={n}: insertion second rows"
        assert actual_q == predicted, f"n={n}: recording second rows"
    return "degrees 1..8"


def criterion_8() -> str:
    checked = 0
    for n in range(1, 8):
        for w in all_permutations(n):
            p, q = rsk(w)
            p_inv, _ = rsk(w.inverse())
            assert p_inv == q, f"{w}: insertion of inverse"
            shape = shape_of(w)
            assert shape.parts[0] == lis_length_patience(w.entries), f"{w}: first part"
            assert len(shape.parts) == lds_length_patience(w.entries), f"{w}: conjugate"
            checked += 1
    for n in range(1, 7):
        pairs = {rsk(w) for w in all_permutations(n)}
        assert len(pairs) == math.factorial(n), f"n={n}: not injective"
    return f"{checked} permutations"


def criterion_9() -> str:
    checked = 0
    for n in range(1, 9):
        for w in boolean_permutations(n):
            row2 = set(rsk(w)[0].row2)
            for i in row2:
                assert not ({i + 1, i + 2} <= row2), f"{w}: {{{i},{i + 1},{i + 2}}}"
            checked += 1
    return f"{checked} boolean permutations"


class Criterion(Value):
    _fields = ("number", "title", "budget_seconds", "check")

    def __init__(
        self, number: int, title: str, budget_seconds: float | None, check: Callable[[], str]
    ) -> None:
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "budget_seconds", budget_seconds)
        object.__setattr__(self, "check", check)


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "first row plus run statistic equals degree (S_1..S_7)", 30.0, criterion_1),
    Criterion(2, "run statistic matches brute-force minimum over all reduced words (S_1..S_5)", 60.0, criterion_2),
    Criterion(3, "second rows read off the canonical word match insertion (boolean, S_1..S_8)", 60.0, criterion_3),
    Criterion(4, "word-peeling and heap-scanning constructions agree on every reduced word (boolean, S_1..S_7)", None, criterion_4),
    Criterion(5, "golden command outputs match byte for byte", None, criterion_5),
    Criterion(6, "binary-word bijection inverts both ways (sizes 1..14) with the published counts", 30.0, criterion_6),
    Criterion(7, "boolean second rows are exactly the shifted-uncrowded family (S_1..S_8)", None, criterion_7),
    Criterion(8, "inverse swaps the tableaux; shape parts match subsequence oracles; injective on S_6", None, criterion_8),
    Criterion(9, "no boolean second row holds three consecutive values (S_1..S_8)", None, criterion_9),
)


def run(numbers: Sequence[int] | None = None, out=None) -> bool:
    """Run the selected criteria (all by default), printing one line each.  A
    criterion fails when its check raises AssertionError or overruns its budget."""
    out = out or sys.stdout
    chosen = [c for c in CRITERIA if numbers is None or c.number in numbers]
    all_ok = True
    for criterion in chosen:
        start = time.perf_counter()
        try:
            detail = criterion.check()
            elapsed = time.perf_counter() - start
            if criterion.budget_seconds is not None and elapsed > criterion.budget_seconds:
                print(
                    f"FAIL {criterion.number}. {criterion.title}: took {elapsed:.1f}s, "
                    f"budget {criterion.budget_seconds:.0f}s",
                    file=out,
                )
                all_ok = False
            else:
                print(
                    f"PASS {criterion.number}. {criterion.title} ({detail}; {elapsed:.1f}s)",
                    file=out,
                )
        except AssertionError as exc:
            print(f"FAIL {criterion.number}. {criterion.title}: {exc}", file=out)
            all_ok = False
    return all_ok
