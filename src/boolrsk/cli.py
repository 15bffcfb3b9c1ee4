"""Command-line front end.

Every subcommand prints a human-readable report by default and a JSON
envelope with ``--json``: its name as ``command``, the keys that echo the
input, ``format`` and ``result``, in that order.  Exit codes: 0 success, 1 domain error (not
boolean, crowded, degree guard), 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .canonical import canonical_from_heap, canonical_from_word, leftmost_letters, rightmost_letters
from .errors import DomainError, ParseError
from .rsk import row2_from_canonical, rsk, shape_of
from .runstat import _moves_from_runs, apply_ulam_move, optimal_run_word, run_statistic, run_step
from .textio import (
    format_flat_word,
    format_int_set,
    format_run_word,
    format_tableau,
    heap_cover_lines,
    heap_sketch,
    parse_binary_word,
    parse_int_list,
    parse_permutation,
    parse_tableau,
    space_separated,
)
from .uncrowded import (
    binary_word_from_tableau,
    count_uncrowded_range,
    crowding_witness,
    realize_leftmost_letters,
    tableau_crowding_witness,
    tableau_from_binary_word,
)
from .words import Word, all_reduced_words, evaluate, heap_of

Output = tuple[dict, dict, str]  # envelope head keys, result, plain-text report


def _tableau_payload(tableau) -> list[list[int]]:
    return [list(row) for row in tableau.rows]


def _canonical_payload(canonical) -> dict:
    return {
        "dec": [list(run.letters) for run in canonical.dec_runs],
        "inc": [list(run.letters) for run in canonical.inc_runs],
        "letters": list(canonical.letters),
    }


def _cmd_rsk(args) -> Output:
    w = parse_permutation(args.perm)
    p, q = rsk(w)
    shape = shape_of(w)
    result = {"P": _tableau_payload(p), "Q": _tableau_payload(q), "shape": list(shape.parts)}
    plain = "\n".join(
        [
            f"w = {w}",
            "P:",
            format_tableau(p),
            "Q:",
            format_tableau(q),
            f"shape: {space_separated(shape.parts)}",
        ]
    )
    return {"input": space_separated(w.entries)}, result, plain


def _cmd_canonical(args) -> Output:
    lines = []
    if args.from_word:
        letters = parse_int_list(args.word_or_perm)
        degree = args.degree if args.degree else (max(letters) + 1 if letters else 1)
        try:
            word = Word(tuple(letters), degree)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
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
    return head, result, "\n".join(lines)


def _cmd_run(args) -> Output:
    w = parse_permutation(args.perm)
    runs = optimal_run_word(w)
    statistic = run_statistic(w)
    lis = len(w.lex_least_lis())
    result = {
        "n": w.n,
        "lis": lis,
        "run": statistic,
        "optimal_run_word": [list(run.letters) for run in runs],
    }
    plain = "\n".join(
        [
            f"w = {w}",
            f"n = {w.n}",
            f"longest increasing subsequence length = {lis}",
            f"run statistic = {statistic}",
            f"optimal run word = {format_run_word(runs)}",
        ]
    )
    return {"input": space_separated(w.entries)}, result, plain


def _cmd_rho(args) -> Output:
    w = parse_permutation(args.perm)
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
    missing = next(v for v in range(1, w.n + 1) if v not in set(lis.values))
    plain = "\n".join(
        [
            f"w = {w}",
            f"length = {w.length()}",
            f"lex least longest increasing subsequence = {space_separated(lis.values)}"
            f" (positions {space_separated(lis.positions)})",
            f"smallest value missing from it = {missing}",
            f"case: {step.case}",
            f"run = {format_flat_word(step.run.letters)} (applied on the {step.side})",
            f"result = {step.result}",
            f"result length = {step.result.length()}",
        ]
    )
    return {"input": space_separated(w.entries)}, result, plain


def _cmd_ulam(args) -> Output:
    w = parse_permutation(args.perm)
    runs = optimal_run_word(w)
    moves = _moves_from_runs(w, runs)
    states = []
    u = w
    for move in moves:
        u = apply_ulam_move(u, move)
        states.append(u)
    result = {
        "optimal_run_word": [list(run.letters) for run in runs],
        "moves": [{"pos": m.from_position, "after": m.insert_after_value} for m in moves],
        "states": [list(s.entries) for s in states],
    }
    lines = [
        f"w = {w}",
        f"optimal run word = {format_run_word(runs)}",
        f"moves = {len(moves)}",
    ]
    for k, (move, state) in enumerate(zip(moves, states), start=1):
        after = "front" if move.insert_after_value is None else str(move.insert_after_value)
        lines.append(f"{k}) move pos={move.from_position} after={after} -> {state}")
    return {"input": space_separated(w.entries)}, result, "\n".join(lines)


def _cmd_heap(args) -> Output:
    w = parse_permutation(args.perm)
    heap = heap_of(w)
    result = {
        "elements": sorted(heap.elements),
        "covers": sorted([x, y] for x, y in heap.covers),
    }
    lines = [f"w = {w}", f"elements: {space_separated(sorted(heap.elements))}"]
    lines += heap_cover_lines(heap)
    lines.append("")
    lines.append(heap_sketch(heap))
    return {"input": space_separated(w.entries)}, result, "\n".join(lines)


def _cmd_words(args) -> Output:
    w = parse_permutation(args.perm)
    words = all_reduced_words(w)
    result = {"count": len(words), "words": [list(word.letters) for word in words]}
    lines = [f"w = {w}", f"reduced words: {len(words)}"]
    lines += [format_flat_word(word.letters) for word in words]
    return {"input": space_separated(w.entries)}, result, "\n".join(lines)


def _cmd_uncrowded(args) -> Output:
    if args.what == "set":
        values = frozenset(parse_int_list(args.value))
        witness = crowding_witness(values)
        head = {"mode": "set", "input": space_separated(sorted(values))}
        result = {
            "set": sorted(values),
            "uncrowded": witness is None,
            "witness": None if witness is None else list(witness),
        }
        lines = [f"set = {format_int_set(values)}", _verdict_line(witness)]
        return head, result, "\n".join(lines)
    if args.what == "tableau":
        tableau = parse_tableau(args.value)
        witness = tableau_crowding_witness(tableau)
        rows_text = " / ".join(space_separated(row) for row in tableau.rows)
        head = {"mode": "tableau", "input": rows_text}
        result = {
            "rows": _tableau_payload(tableau),
            "row2": sorted(tableau.row2),
            "uncrowded": witness is None,
            "witness": None if witness is None else list(witness),
        }
        lines = [
            "T:",
            format_tableau(tableau),
            f"second row = {format_int_set(tableau.row2)}",
            _verdict_line(witness),
        ]
        return head, result, "\n".join(lines)
    # realize
    if args.degree is None:
        raise ParseError("realize needs --degree")
    values = frozenset(parse_int_list(args.value))
    canonical = realize_leftmost_letters(values, args.degree)
    w = evaluate(canonical.word)
    head = {"mode": "realize", "input": space_separated(sorted(values)), "degree": args.degree}
    result = {**_canonical_payload(canonical), "permutation": list(w.entries)}
    lines = [
        f"letters = {format_int_set(values)}",
        f"canonical word = {format_run_word(canonical.runs)}",
        f"boolean permutation = {w}",
    ]
    return head, result, "\n".join(lines)


def _verdict_line(witness) -> str:
    if witness is None:
        return "uncrowded"
    y, x, count = witness
    return f"crowded: window [{y}, {y + 2 * x}] holds {count} values (at most {x + 1} allowed)"


def _cmd_count(args) -> Output:
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
    rows = [(n, *counts) for n, counts in enumerate(count_uncrowded_range(lo, hi), start=lo)]
    result = {
        "rows": [
            {"n": n, "total": total, "two_row": two_row, "max_in_row2": with_max}
            for n, total, two_row, with_max in rows
        ]
    }
    lines = ["n total two-row n-in-row2"]
    lines += [f"{n} {total} {two_row} {with_max}" for n, total, two_row, with_max in rows]
    return {"input": span}, result, "\n".join(lines)


def _cmd_bij(args) -> Output:
    if args.direction == "f":
        word = parse_binary_word(args.value)
        tableau = tableau_from_binary_word(word)
        plain = "\n".join([f"x = {word}", "T:", format_tableau(tableau)])
        return {"direction": "f", "input": str(word)}, {"rows": _tableau_payload(tableau)}, plain
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
    plain = "\n".join(["T:", format_tableau(tableau), f"x = {word}"])
    return head, {"word": str(word)}, plain


def _cmd_selftest(args) -> int:
    from . import acceptance

    numbers = args.criteria or None
    ok = acceptance.run(numbers, out=sys.stdout)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolrsk",
        description="Canonical reduced words, run statistics, RSK tableaux, and "
        "uncrowded tableaux of boolean permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        return p

    p = add("rsk", "insertion and recording tableaux of a permutation")
    p.add_argument("perm", help="one-line notation, space- or comma-separated")
    p.set_defaults(handler=_cmd_rsk)

    p = add("canonical", "canonical reduced word of a boolean permutation")
    p.add_argument("word_or_perm", help="permutation, or a reduced word with --from-word")
    p.add_argument("--from-word", action="store_true", help="treat input as a reduced word")
    p.add_argument("--degree", type=int, help="ambient degree for word input")
    p.set_defaults(handler=_cmd_canonical)

    p = add("run", "run statistic and an optimal run word")
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_run)

    p = add("rho", "one run-multiplication step toward the identity")
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_rho)

    p = add("ulam", "sort with a minimum number of delete-and-reinsert moves")
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_ulam)

    p = add("heap", "cover relations and a sketch of a boolean permutation's heap")
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_heap)

    p = add("words", "all reduced words (guarded to small degrees)")
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_words)

    p = add("uncrowded", "window-density checks and realization of leftmost letters")
    p.add_argument("what", choices=["set", "tableau", "realize"])
    p.add_argument("value", help="integer set, tableau rows ('1 2 / 3 4'), or letters")
    p.add_argument("--degree", type=int, help="ambient degree for realize")
    p.set_defaults(handler=_cmd_uncrowded)

    p = add("count", "count uncrowded tableaux for a range of sizes, e.g. 1..10")
    p.add_argument("span")
    p.set_defaults(handler=_cmd_count)

    p = add("bij", "the bijection between binary words and uncrowded tableaux")
    p.add_argument("direction", choices=["f", "g"], help="f: word to tableau; g: back")
    p.add_argument("value", help="binary word for f; tableau rows or a file for g")
    p.set_defaults(handler=_cmd_bij)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("criteria", nargs="*", type=int, help="criterion numbers (default all)")
    p.set_defaults(handler=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return _cmd_selftest(args)
    try:
        head, result, plain = args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        envelope = {"command": args.command, **head, "format": "json", "result": result}
        print(json.dumps(envelope, indent=2))
    else:
        print(plain)
    return 0


if __name__ == "__main__":
    sys.exit(main())
