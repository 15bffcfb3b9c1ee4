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

from bisect import bisect_right
from functools import lru_cache

from ._value import Value
from .errors import DomainError, _in_range
from .permutation import Permutation, Subsequence
from .words import RunWord

CASE_MISSING_ONE = "missing-value-is-1"
CASE_RIGHT_OF_PREDECESSOR = "right-of-predecessor"
CASE_LEFT_OF_PREDECESSOR = "left-of-predecessor"


class RunStep(Value):
    """One application of the step map: the run used, which side it was
    multiplied on, and which of the three cases fired.

    The run undoes one inversion per letter, so length(result) is exactly
    length(input) minus len(run).
    """

    _fields = ("result", "run", "side", "case")

    def __init__(self, result: Permutation, run: RunWord, side: str, case: str) -> None:
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "case", case)


class UlamMove(Value):
    """Delete the entry at ``from_position`` and reinsert it directly after
    the entry with value ``insert_after_value`` (or at the front when None)."""

    _fields = ("from_position", "insert_after_value")

    def __init__(self, from_position: int, insert_after_value: int | None) -> None:
        object.__setattr__(self, "from_position", from_position)
        object.__setattr__(self, "insert_after_value", insert_after_value)


def run_step(w: Permutation) -> RunStep:
    """Multiply w by one run so that the smallest value q missing from the
    lexicographically least longest increasing subsequence joins it.

    Three cases: q = 1 slides to the front (right multiplication); q sitting
    right of q-1 slides next to it (right multiplication); q sitting left of
    q-1 is relabelled into place (left multiplication).  The run acts on the
    entries directly, as a slide of one entry or one relabelling pass over
    the values, so each step builds one permutation and checks none.  All of
    1..q-1 open the least LIS, so q, the position of q-1 and j are read off it.
    """
    lis = w.lex_least_lis()
    if len(lis) == w.n:
        raise DomainError("the identity permutation admits no step")
    q = _least_missing(lis)
    entries = w.entries
    t = entries.index(q) + 1
    if q == 1:
        s, case = 1, CASE_MISSING_ONE
    else:
        s, case = lis.positions[q - 2] + 1, CASE_RIGHT_OF_PREDECESSOR
    if s <= t:
        # q right of q-1 (or q = 1); minimality of q keeps it off position s
        assert s < t
        # the run t-1, ..., s on the right slides the entry at t to position s
        result = entries[: s - 1] + entries[t - 1 : t] + entries[s - 1 : t - 1] + entries[t:]
        # w's entries reordered, and the letters t-1 down to s, a run as s < t
        u, run = Permutation._trusted(result), RunWord._trusted(tuple(range(t - 1, s - 1, -1)))
        return RunStep(u, run, "right", case)
    # the positions of 1..q-1 rise along the least LIS: j is the first of them right of t
    j = bisect_right(lis.positions, t, 0, q - 1) + 1
    # left multiplication by s_j ... s_{q-1} sends q to j and v to v + 1 for j <= v < q
    relabel = list(range(w.n + 1))
    relabel[j:q] = range(j + 1, q + 1)
    relabel[q] = j
    result = tuple(map(relabel.__getitem__, entries))
    # relabel permutes 1..n, and j < q as q-1 sits right of t
    u, run = Permutation._trusted(result), RunWord._trusted(tuple(range(j, q)))
    return RunStep(u, run, "left", CASE_LEFT_OF_PREDECESSOR)


def _least_missing(lis: Subsequence) -> int:
    """q, the least value missing from ``lis``: 1..q-1 open a least LIS."""
    return next((v for v, u in enumerate(lis.values, start=1) if u != v), len(lis) + 1)


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
    return _run_word(w)


@lru_cache(maxsize=1)  # the last run word: ulam_sort(w) after it runs no second loop
def _run_word(w: Permutation) -> tuple[RunWord, ...]:
    # Each step lengthens the least LIS by one, so the statistic counts the steps
    # and the loop stops at the last step, with no LIS taken of the identity.
    # Each reversed run is filed as its step is made, so no step outlives the next.
    left: list[RunWord] = []
    right: list[RunWord] = []
    for _ in range(run_statistic(w)):
        step = run_step(w)
        (left if step.side == "left" else right).append(step.run.reversed())
        w = step.result
    return tuple(left + right[::-1])


def _apply_move(values: list[int], move: UlamMove) -> None:
    """Apply ``move`` in place to ``values``, one-line entries."""
    v = values.pop(move.from_position - 1)
    if move.insert_after_value is None:
        values.insert(0, v)
    else:
        values.insert(values.index(move.insert_after_value) + 1, v)


def apply_ulam_move(w: Permutation, move: UlamMove) -> Permutation:
    """w with ``move`` applied.  The move's position and value must lie in
    1..n, and the value must not be the one that moves."""
    moved = w(move.from_position)
    after = move.insert_after_value
    if after is not None:
        _in_range((after,), 1, w.n, "value")
        if after == moved:
            raise ValueError(f"value {after} cannot be inserted after itself")
    values = list(w.entries)
    _apply_move(values, move)
    # one entry moved: the same values in another order
    return Permutation._trusted(tuple(values))


def ulam_sort(w: Permutation) -> tuple[UlamMove, ...]:
    """A shortest sequence of Ulam moves sorting w to the identity.

    Peel the runs of an optimal run word off the right end, one at a time;
    multiplying by a reversed run on the right deletes one entry and reinserts
    it, which is exactly an Ulam move.  The move count is run_statistic(w).
    """
    values, moves = list(w.entries), []
    for run in reversed(optimal_run_word(w)):
        # the move is the right multiplication by the run read backwards
        if run.last <= run.first:
            # ascending backwards, a = last to b = first: position a slides right to b+1
            move = UlamMove(run.last, values[run.first])
        else:
            # descending backwards, b = last to a = first: position b+1 slides left to a
            move = UlamMove(run.last + 1, values[run.first - 2] if run.first > 1 else None)
        _apply_move(values, move)
        moves.append(move)
    assert values == sorted(values)
    return tuple(moves)
