"""``boolrsk run``: the run statistic and an optimal run word."""

from ..runstat import optimal_run_word
from ..textio import format_run_word


def run(w):
    runs = optimal_run_word(w)  # one run per step: n minus the least LIS's length
    statistic = len(runs)
    lis = w.n - statistic
    result = {
        "n": w.n,
        "lis": lis,
        "run": statistic,
        "optimal_run_word": [list(run.letters) for run in runs],
    }
    lines = [
        f"n = {w.n}",
        f"longest increasing subsequence length = {lis}",
        f"run statistic = {statistic}",
        f"optimal run word = {format_run_word(runs)}",
    ]
    return result, lines
