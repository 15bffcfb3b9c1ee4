"""``boolrsk uncrowded``: window-density checks and realization of leftmost letters."""

from ..errors import ParseError, _in_range
from ..textio import (
    format_int_set, format_run_word, format_tableau, parse_int_list, parse_tableau,
    space_separated)
from ..uncrowded import crowding_witness, realize_leftmost_letters, tableau_crowding_witness
from . import _canonical_payload, _checked_size, _verdict


def run(args):
    if args["degree"] is not None and args["what"] != "realize":
        raise ParseError("--degree applies only to realize")
    if args["what"] == "set":
        values = frozenset(parse_int_list(args["value"]))
        verdict, verdict_line = _verdict(crowding_witness(values))
        head = {"mode": "set", "input": space_separated(sorted(values))}
        lines = [f"set = {format_int_set(values)}", verdict_line]
        return head, {"set": values, **verdict}, lines
    if args["what"] == "tableau":
        tableau = parse_tableau(args["value"])
        verdict, verdict_line = _verdict(tableau_crowding_witness(tableau))
        rows_text = " / ".join(space_separated(row) for row in tableau.rows)
        head = {"mode": "tableau", "input": rows_text}
        result = {"rows": tableau.rows, "row2": tableau.row2, **verdict}
        lines = [
            "T:",
            format_tableau(tableau),
            f"second row = {format_int_set(tableau.row2)}",
            verdict_line,
        ]
        return head, result, lines
    # realize
    from ..words import evaluate

    degree = args["degree"]
    if degree is None:
        raise ParseError("realize needs --degree")
    values = frozenset(parse_int_list(args["value"]))
    _in_range(sorted(values), 1, _checked_size("degree", degree) - 1, "letter", ParseError)
    canonical = realize_leftmost_letters(values, degree)
    w = evaluate(canonical.word)
    head = {"mode": "realize", "input": space_separated(sorted(values)), "degree": degree}
    result = {**_canonical_payload(canonical), "permutation": w.entries}
    lines = [
        f"letters = {format_int_set(values)}",
        f"canonical word = {format_run_word(canonical.runs)}",
        f"boolean permutation = {w}",
    ]
    return head, result, lines
