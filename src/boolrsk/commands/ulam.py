"""``boolrsk ulam``: sort with a minimum number of delete-and-reinsert moves."""

from itertools import accumulate

from ..runstat import apply_ulam_move, optimal_run_word, ulam_sort
from ..textio import format_run_word


def run(w):
    runs = optimal_run_word(w)
    moves = ulam_sort(w)  # reads the run word just built
    states = list(accumulate(moves, apply_ulam_move, initial=w))[1:]
    result = {
        "optimal_run_word": [run.letters for run in runs],
        "moves": [{"pos": m.from_position, "after": m.insert_after_value} for m in moves],
        "states": [s.entries for s in states],
    }
    lines = [
        f"optimal run word = {format_run_word(runs)}",
        f"moves = {len(moves)}",
    ]
    for k, (move, state) in enumerate(zip(moves, states), start=1):
        after = "front" if move.insert_after_value is None else str(move.insert_after_value)
        lines.append(f"{k}) move pos={move.from_position} after={after} -> {state}")
    return result, lines
