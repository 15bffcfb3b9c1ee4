"""The run statistic, its step map, optimal run words, and Ulam-move sorting.

run(w) is the fewest runs whose concatenation is a reduced word for w, and it
always equals n minus the length of a longest increasing subsequence.  The
constructive half of that identity is a step map: multiply w by one run,
chosen so the smallest value missing from the least longest increasing
subsequence slides into it.  Iterating the step to the identity yields an
optimal run word, and reading that word's runs from right to left sorts w
with a minimum number of delete-and-reinsert (Ulam) moves.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DomainError
from .permutation import Permutation
from .words import RunWord

CASE_MISSING_ONE = "missing-value-is-1"
CASE_RIGHT_OF_PREDECESSOR = "right-of-predecessor"
CASE_LEFT_OF_PREDECESSOR = "left-of-predecessor"


@dataclass(frozen=True)
class RunStep:
    """One application of the step map: the run used, which side it was
    multiplied on, and which of the three cases fired.

    The run undoes one inversion per letter, so length(result) is exactly
    length(input) minus len(run).
    """

    result: Permutation
    run: RunWord
    side: str
    case: str


@dataclass(frozen=True)
class UlamMove:
    """Delete the entry at ``from_position`` and reinsert it directly after
    the entry with value ``insert_after_value`` (or at the front when None)."""

    from_position: int
    insert_after_value: int | None


def run_step(w: Permutation) -> RunStep:
    """Multiply w by one run so that the smallest value q missing from the
    lexicographically least longest increasing subsequence joins it.

    Three cases: q = 1 slides to the front (right multiplication); q sitting
    right of q-1 slides next to it (right multiplication); q sitting left of
    q-1 is relabelled into place (left multiplication).
    """
    if w.is_identity():
        raise DomainError("the identity permutation admits no step")
    lis_values = set(w.lex_least_lis().values)
    q = next(v for v in range(1, w.n + 1) if v not in lis_values)
    if q == 1:
        t = w.position_of(1)
        run = RunWord(tuple(range(t - 1, 0, -1)))
        return RunStep(w.apply_word(run.letters, "right"), run, "right", CASE_MISSING_ONE)
    t = w.position_of(q)
    t_prev = w.position_of(q - 1)
    if t > t_prev:
        # q right of q-1; minimality of q forces a gap of at least two positions
        assert t > t_prev + 1
        run = RunWord(tuple(range(t - 1, t_prev, -1)))
        return RunStep(
            w.apply_word(run.letters, "right"), run, "right", CASE_RIGHT_OF_PREDECESSOR
        )
    j = min(v for v in range(1, q) if w.position_of(v) > t)
    run = RunWord(tuple(range(j, q)))
    return RunStep(w.apply_word(run.letters, "left"), run, "left", CASE_LEFT_OF_PREDECESSOR)


def run_statistic(w: Permutation) -> int:
    """n minus the length of a longest increasing subsequence; equivalently
    the fewest runs concatenating to a reduced word for w (and the fewest in
    any decomposition at all, reduced or not)."""
    return w.n - len(w.lex_least_lis())


def optimal_run_word(w: Permutation) -> tuple[RunWord, ...]:
    """A reduced word for w made of exactly run_statistic(w) runs.

    Iterate the step map down to the identity, then undo the steps: a right
    multiplication contributes its reversed run at the right end, a left
    multiplication at the left end.

    >>> [r.letters for r in optimal_run_word(Permutation((5, 1, 6, 4, 2, 7, 3, 8)))]
    [(3, 2), (4, 3, 2, 1), (5, 4, 3), (6,)]
    """
    steps = []
    u = w
    while not u.is_identity():
        step = run_step(u)
        steps.append(step)
        u = step.result
    runs: list[RunWord] = []
    for step in reversed(steps):
        if step.side == "right":
            runs.append(step.run.reversed())
        else:
            runs.insert(0, step.run.reversed())
    return tuple(runs)


def apply_ulam_move(w: Permutation, move: UlamMove) -> Permutation:
    values = list(w.entries)
    v = values.pop(move.from_position - 1)
    if move.insert_after_value is None:
        values.insert(0, v)
    else:
        values.insert(values.index(move.insert_after_value) + 1, v)
    return Permutation(tuple(values))


def ulam_sort(w: Permutation) -> tuple[UlamMove, ...]:
    """A shortest sequence of Ulam moves sorting w to the identity.

    Peel the runs of an optimal run word off the right end, one at a time;
    multiplying by a reversed run on the right deletes one entry and reinserts
    it, which is exactly an Ulam move.  The move count is run_statistic(w).
    """
    return tuple(move for move, _ in _moves_from_runs(w, optimal_run_word(w)))


def _moves_from_runs(
    w: Permutation, runs: tuple[RunWord, ...]
) -> Iterator[tuple[UlamMove, Permutation]]:
    """Each Ulam move read off ``runs``, an optimal run word for w, with the
    permutation it leaves."""
    u = w
    for run in reversed(runs):
        letters = run.reversed().letters
        if letters[0] <= letters[-1]:
            # increasing (or singleton): the entry at position a slides right to b+1
            a, b = letters[0], letters[-1]
            move = UlamMove(a, u(b + 1))
        else:
            # decreasing: the entry at position b+1 slides left to a
            b, a = letters[0], letters[-1]
            move = UlamMove(b + 1, u(a - 1) if a > 1 else None)
        u = u.apply_word(letters, "right")
        yield move, u
    assert u.is_identity()
