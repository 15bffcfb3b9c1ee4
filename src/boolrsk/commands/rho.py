"""``boolrsk rho``: one run-multiplication step toward the identity."""

from ..runstat import run_step
from ..textio import format_flat_word, space_separated


def run(w):
    lis = w.lex_least_lis()
    step = run_step(w)
    result = {
        "lis_values": list(lis.values),
        "lis_positions": list(lis.positions),
        "case": step.case,
        "run": list(step.run.letters),
        "side": step.side,
        "result": list(step.result.entries),
        "length_before": w.length(),
        "length_after": step.result.length(),
    }
    in_lis = set(lis.values)
    missing = next(v for v in range(1, w.n + 1) if v not in in_lis)
    lines = [
        f"length = {w.length()}",
        f"lex least longest increasing subsequence = {space_separated(lis.values)}"
        f" (positions {space_separated(lis.positions)})",
        f"smallest value missing from it = {missing}",
        f"case: {step.case}",
        f"run = {format_flat_word(step.run.letters)} (applied on the {step.side})",
        f"result = {step.result}",
        f"result length = {step.result.length()}",
    ]
    return result, lines
