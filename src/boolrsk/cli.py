"""Command-line front end.

Every subcommand prints a human-readable report by default and a JSON
envelope with ``--json``: its name as ``command``, the keys that echo the
input, ``format`` and ``result``, in that order.  Exit codes: 0 success, 1 domain error (not
boolean, crowded, degree guard), 2 parse or usage error or a size past MAX_SIZE.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .errors import DomainError, ParseError

# Each handler imports the library functions it calls, and main imports the
# permutation parser only for the subcommands that take one, so a call loads
# only the modules its subcommand runs.

MAX_SIZE = 10_000  # the largest count size or word degree a call may ask for

Output = tuple[dict, dict, list[str]]  # envelope head keys, result, report lines
Report = tuple[dict, list[str]]  # result and report lines of a permutation subcommand


def _checked_size(what: str, value: int) -> int:
    """``value`` when it lies in 1..MAX_SIZE; otherwise a parse error."""
    if value < 1:
        raise ParseError(f"{what} must be at least 1")
    if value > MAX_SIZE:
        raise ParseError(f"{what} {value} exceeds {MAX_SIZE}")
    return value


def _check_letters(letters, degree: int) -> None:
    """A parse error naming the first letter outside 1..degree-1, if any."""
    for a in letters:
        if not 1 <= a <= degree - 1:
            raise ParseError(f"letter {a} out of range 1..{degree - 1}")


def _tableau_payload(tableau) -> list[list[int]]:
    return [list(row) for row in tableau.rows]


def _canonical_payload(canonical) -> dict:
    return {
        "dec": [list(run.letters) for run in canonical.dec_runs],
        "inc": [list(run.letters) for run in canonical.inc_runs],
        "letters": list(canonical.letters),
    }


def _cmd_rsk(w) -> Report:
    from .rsk import rsk, shape_of
    from .textio import format_tableau, space_separated

    p, q = rsk(w)
    shape = shape_of(w)
    result = {"P": _tableau_payload(p), "Q": _tableau_payload(q), "shape": list(shape.parts)}
    lines = [
        "P:",
        format_tableau(p),
        "Q:",
        format_tableau(q),
        f"shape: {space_separated(shape.parts)}",
    ]
    return result, lines


def _cmd_canonical(args) -> Output:
    from .canonical import (
        canonical_from_heap,
        canonical_from_word,
        leftmost_letters,
        rightmost_letters,
    )
    from .rsk import row2_from_canonical
    from .textio import (
        format_flat_word,
        format_int_set,
        format_run_word,
        parse_int_list,
        parse_permutation,
        space_separated,
    )
    from .words import Word, evaluate, heap_of

    lines = []
    if args.from_word:
        letters = parse_int_list(args.word_or_perm)
        degree = args.degree if args.degree is not None else (max(letters) + 1 if letters else 1)
        _check_letters(letters, _checked_size("degree", degree))
        word = Word(tuple(letters), degree)
        canonical = canonical_from_word(word)
        w = evaluate(word)
        lines.append(f"input word = {format_flat_word(word.letters)}")
    else:
        w = parse_permutation(args.word_or_perm)
        letters = w.entries
        canonical = canonical_from_heap(heap_of(w))
    row2_p, row2_q = row2_from_canonical(canonical)
    head = {
        "input": space_separated(letters),
        "from_word": bool(args.from_word),
        "degree": canonical.n,
    }
    result = {
        **_canonical_payload(canonical),
        "leftmost": sorted(leftmost_letters(canonical)),
        "rightmost": sorted(rightmost_letters(canonical)),
        "row2_P": sorted(row2_p),
        "row2_Q": sorted(row2_q),
    }
    lines += [
        f"w = {w}",
        f"canonical word = {format_run_word(canonical.runs)}",
        f"leftmost letters = {format_int_set(leftmost_letters(canonical))}",
        f"rightmost letters = {format_int_set(rightmost_letters(canonical))}",
        f"second row of P = {format_int_set(row2_p)}",
        f"second row of Q = {format_int_set(row2_q)}",
    ]
    return head, result, lines


def _cmd_run(w) -> Report:
    from .runstat import optimal_run_word, run_statistic
    from .textio import format_run_word

    runs = optimal_run_word(w)
    statistic = run_statistic(w)
    lis = len(w.lex_least_lis())
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


def _cmd_rho(w) -> Report:
    from .runstat import run_step
    from .textio import format_flat_word, space_separated

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


def _cmd_ulam(w) -> Report:
    from .runstat import _moves_from_runs, optimal_run_word
    from .textio import format_run_word

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


def _cmd_heap(w) -> Report:
    from .textio import heap_cover_lines, heap_sketch, space_separated
    from .words import heap_of

    heap = heap_of(w)
    result = {
        "elements": sorted(heap.elements),
        "covers": sorted([x, y] for x, y in heap.covers),
    }
    lines = [f"elements: {space_separated(sorted(heap.elements))}"]
    lines += heap_cover_lines(heap)
    lines.append("")
    lines.append(heap_sketch(heap))
    return result, lines


def _cmd_words(w) -> Report:
    from .textio import format_flat_word
    from .words import all_reduced_words

    words = all_reduced_words(w)
    result = {"count": len(words), "words": [list(word.letters) for word in words]}
    lines = [f"reduced words: {len(words)}"]
    lines += [format_flat_word(word.letters) for word in words]
    return result, lines


def _cmd_uncrowded(args) -> Output:
    from .textio import (
        format_int_set,
        format_run_word,
        format_tableau,
        parse_int_list,
        parse_tableau,
        space_separated,
    )
    from .uncrowded import crowding_witness, realize_leftmost_letters, tableau_crowding_witness

    if args.what == "set":
        values = frozenset(parse_int_list(args.value))
        verdict, verdict_line = _verdict(crowding_witness(values))
        head = {"mode": "set", "input": space_separated(sorted(values))}
        lines = [f"set = {format_int_set(values)}", verdict_line]
        return head, {"set": sorted(values), **verdict}, lines
    if args.what == "tableau":
        tableau = parse_tableau(args.value)
        verdict, verdict_line = _verdict(tableau_crowding_witness(tableau))
        rows_text = " / ".join(space_separated(row) for row in tableau.rows)
        head = {"mode": "tableau", "input": rows_text}
        result = {"rows": _tableau_payload(tableau), "row2": sorted(tableau.row2), **verdict}
        lines = [
            "T:",
            format_tableau(tableau),
            f"second row = {format_int_set(tableau.row2)}",
            verdict_line,
        ]
        return head, result, lines
    # realize
    from .words import evaluate

    if args.degree is None:
        raise ParseError("realize needs --degree")
    values = frozenset(parse_int_list(args.value))
    _check_letters(sorted(values), _checked_size("degree", args.degree))
    canonical = realize_leftmost_letters(values, args.degree)
    w = evaluate(canonical.word)
    head = {"mode": "realize", "input": space_separated(sorted(values)), "degree": args.degree}
    result = {**_canonical_payload(canonical), "permutation": list(w.entries)}
    lines = [
        f"letters = {format_int_set(values)}",
        f"canonical word = {format_run_word(canonical.runs)}",
        f"boolean permutation = {w}",
    ]
    return head, result, lines


def _verdict(witness) -> tuple[dict, str]:
    """The result keys and the report line of a crowding check."""
    if witness is None:
        return {"uncrowded": True, "witness": None}, "uncrowded"
    y, x, count = witness
    line = f"crowded: window [{y}, {y + 2 * x}] holds {count} values (at most {x + 1} allowed)"
    return {"uncrowded": False, "witness": list(witness)}, line


def _cmd_count(args) -> Output:
    from .uncrowded import count_uncrowded_range

    span = args.span.strip()
    if ".." in span:
        lo_text, hi_text = span.split("..", 1)
    else:
        lo_text = hi_text = span
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ParseError(f"not a range: {span!r}") from None
    if lo < 1 or hi < lo:
        raise ParseError(f"bad range: {span!r}")
    _checked_size("range end", hi)
    rows = [(n, *counts) for n, counts in enumerate(count_uncrowded_range(lo, hi), start=lo)]
    result = {
        "rows": [
            {"n": n, "total": total, "two_row": two_row, "max_in_row2": with_max}
            for n, total, two_row, with_max in rows
        ]
    }
    lines = ["n total two-row n-in-row2"]
    lines += [f"{n} {total} {two_row} {with_max}" for n, total, two_row, with_max in rows]
    return {"input": span}, result, lines


def _cmd_bij(args) -> Output:
    from .textio import format_tableau, parse_binary_word, parse_tableau, space_separated
    from .uncrowded import binary_word_from_tableau, tableau_from_binary_word

    if args.direction == "f":
        word = parse_binary_word(args.value)
        tableau = tableau_from_binary_word(word)
        lines = [f"x = {word}", "T:", format_tableau(tableau)]
        return {"direction": "f", "input": str(word)}, {"rows": _tableau_payload(tableau)}, lines
    # direction g: value is inline rows ("a b / c d") or a file path
    text = args.value
    try:
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        pass
    tableau = parse_tableau(text)
    word = binary_word_from_tableau(tableau)
    head = {"direction": "g", "input": " / ".join(space_separated(row) for row in tableau.rows)}
    return head, {"word": str(word)}, ["T:", format_tableau(tableau), f"x = {word}"]


PERM = ("perm", {})

# One row per subcommand: name, help, handler and the arguments after --json,
# each a name and its add_argument options.  A subcommand whose argument is
# ``perm`` takes a permutation: main parses it, echoes it as ``input`` and leads
# the report with ``w = ...``; the handler gets w and returns (result, lines).
COMMANDS = (
    ("rsk", "insertion and recording tableaux of a permutation", _cmd_rsk, (
        ("perm", {"help": "one-line notation, space- or comma-separated"}),)),
    ("canonical", "canonical reduced word of a boolean permutation", _cmd_canonical, (
        ("word_or_perm", {"help": "permutation, or a reduced word with --from-word"}),
        ("--from-word", {"action": "store_true", "help": "treat input as a reduced word"}),
        ("--degree", {"type": int, "help": "ambient degree for word input"}))),
    ("run", "run statistic and an optimal run word", _cmd_run, (PERM,)),
    ("rho", "one run-multiplication step toward the identity", _cmd_rho, (PERM,)),
    ("ulam", "sort with a minimum number of delete-and-reinsert moves", _cmd_ulam, (PERM,)),
    ("heap", "cover relations and a sketch of a boolean permutation's heap", _cmd_heap, (PERM,)),
    ("words", "all reduced words (guarded to small degrees)", _cmd_words, (PERM,)),
    ("uncrowded", "window-density checks and realization of leftmost letters", _cmd_uncrowded, (
        ("what", {"choices": ["set", "tableau", "realize"]}),
        ("value", {"help": "integer set, tableau rows ('1 2 / 3 4'), or letters"}),
        ("--degree", {"type": int, "help": "ambient degree for realize"}))),
    ("count", "count uncrowded tableaux for a range of sizes, e.g. 1..10", _cmd_count, (
        ("span", {}),)),
    ("bij", "the bijection between binary words and uncrowded tableaux", _cmd_bij, (
        ("direction", {"choices": ["f", "g"], "help": "f: word to tableau; g: back"}),
        ("value", {"help": "binary word for f; tableau rows or a file for g"}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolrsk",
        description="Canonical reduced words, run statistics, RSK tableaux, and "
        "uncrowded tableaux of boolean permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        for argument, options in arguments:
            p.add_argument(argument, **options)
        p.set_defaults(handler=handler)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("criteria", nargs="*", type=int, help="criterion numbers (default all)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        from . import acceptance

        ok = acceptance.run(args.criteria or None, out=sys.stdout)
        return 0 if ok else 1
    try:
        if "perm" in vars(args):
            from .textio import parse_permutation, space_separated

            w = parse_permutation(args.perm)
            result, lines = args.handler(w)
            head = {"input": space_separated(w.entries)}
            lines = [f"w = {w}", *lines]
        else:
            head, result, lines = args.handler(args)
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    if args.json:
        envelope = {"command": args.command, **head, "format": "json", "result": result}
        print(json.dumps(envelope, indent=2))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
