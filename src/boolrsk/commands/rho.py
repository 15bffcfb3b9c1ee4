"""``boolrsk rho``: one run-multiplication step toward the identity."""

from ..runstat import _least_missing, run_step
from ..textio import format_flat_word, space_separated


def run(w):
    lis = w.lex_least_lis()
    step = run_step(w)  # reuses the LIS just taken
    length_before, length_after = w.length(), step.result.length()
    result = {
        "lis_values": lis.values,
        "lis_positions": lis.positions,
        "case": step.case,
        "run": step.run.letters,
        "side": step.side,
        "result": step.result.entries,
        "length_before": length_before,
        "length_after": length_after,
    }
    lines = [
        f"length = {length_before}",
        f"lex least longest increasing subsequence = {space_separated(lis.values)}"
        f" (positions {space_separated(lis.positions)})",
        f"smallest value missing from it = {_least_missing(lis)}",
        f"case: {step.case}",
        f"run = {format_flat_word(step.run.letters)} (applied on the {step.side})",
        f"result = {step.result}",
        f"result length = {length_after}",
    ]
    return result, lines
