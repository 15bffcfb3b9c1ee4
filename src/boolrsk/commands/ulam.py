"""``boolrsk ulam``: sort with a minimum number of delete-and-reinsert moves."""

from ..runstat import _moves_from_runs, optimal_run_word
from ..textio import format_run_word


def run(w):
    runs = optimal_run_word(w)
    steps = list(_moves_from_runs(w, runs))
    result = {
        "optimal_run_word": [list(run.letters) for run in runs],
        "moves": [{"pos": m.from_position, "after": m.insert_after_value} for m, _ in steps],
        "states": [list(s.entries) for _, s in steps],
    }
    lines = [
        f"optimal run word = {format_run_word(runs)}",
        f"moves = {len(steps)}",
    ]
    for k, (move, state) in enumerate(steps, start=1):
        after = "front" if move.insert_after_value is None else str(move.insert_after_value)
        lines.append(f"{k}) move pos={move.from_position} after={after} -> {state}")
    return result, lines
