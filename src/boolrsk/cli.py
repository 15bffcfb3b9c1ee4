"""Command-line front end.

Every subcommand prints a human-readable report by default and a JSON
envelope with ``--json``: its name as ``command``, the keys that echo the
input, ``format`` and ``result``, in that order.  Exit codes: 0 success, 1 domain error (not
boolean, crowded, degree guard), 2 parse or usage error or a size past ``commands.MAX_SIZE``, 3 an
internal error or a closed output pipe.  Every failure is one ``error:`` line on stderr.
"""

from __future__ import annotations

import importlib
import os
import sys
from itertools import chain, islice

from .errors import DomainError, ParseError, _parse_int

JSON = ("--json", {"help": "emit a JSON envelope"})
PERM = ("perm", {"help": "one-line notation, space- or comma-separated"})

# One row per subcommand: name, help and arguments, options first, each a name
# and its options.  An option with a ``type`` takes a value and one without is
# a flag; a positional may have ``choices``, and one with ``nargs`` takes the
# rest.  main runs ``boolrsk.commands.<name>.run`` (selftest: the acceptance
# suite) and imports no other handler.  For a ``perm`` argument main parses the
# permutation, echoes it as ``input`` and leads the report with ``w = ...``; the
# handler gets w and returns (result, lines).  Any other handler gets the values
# by name and returns (envelope head keys, result, lines).
COMMANDS = (
    ("rsk", "insertion and recording tableaux of a permutation", (JSON, PERM)),
    ("canonical", "canonical reduced word of a boolean permutation", (
        JSON,
        ("--from-word", {"help": "treat input as a reduced word"}),
        ("--degree", {"type": int, "help": "ambient degree for word input"}),
        ("word_or_perm", {"help": "permutation, or a reduced word with --from-word"}))),
    ("run", "run statistic and an optimal run word", (JSON, PERM)),
    ("rho", "one run-multiplication step toward the identity", (JSON, PERM)),
    ("ulam", "sort with a minimum number of delete-and-reinsert moves", (JSON, PERM)),
    ("heap", "cover relations and a sketch of a boolean permutation's heap", (JSON, PERM)),
    ("words", "all reduced words (guarded to small degrees)", (JSON, PERM)),
    ("uncrowded", "window-density checks and realization of leftmost letters", (
        JSON,
        ("--degree", {"type": int, "help": "ambient degree for realize"}),
        ("what", {"choices": ("set", "tableau", "realize")}),
        ("value", {"help": "integer set, tableau rows ('1 2 / 3 4'), or letters"}))),
    ("count", "count uncrowded tableaux for a range of sizes, e.g. 1..10", (JSON, ("span", {}))),
    ("bij", "the bijection between binary words and uncrowded tableaux", (
        JSON,
        ("direction", {"choices": ("f", "g"), "help": "f: word to tableau; g: back"}),
        ("value", {"help": "binary word for f; tableau rows or a file for g"}))),
    ("selftest", "run the acceptance suite", (
        ("criteria", {"type": int, "nargs": "*", "help": "criterion numbers (default all)"}),)),
)
NAMES = [name for name, _, _ in COMMANDS]
ABOUT = ("Canonical reduced words, run statistics, RSK tableaux, and uncrowded tableaux of "
         "boolean permutations.")


def _label(argument: str, options: dict) -> str:
    """How the usage line and the help listing show one argument."""
    if argument[0] == "-":
        return f"{argument} {argument[2:].upper()}" if "type" in options else argument
    if "choices" in options:
        return "{" + ",".join(options["choices"]) + "}"
    return f"[{argument} ...]" if "nargs" in options else argument


def _exit_with_help(usage: str, about: str, rows) -> None:
    rows = [*rows, ("-h, --help", "show this help message and exit")]
    print("\n".join([usage, "", about, ""] + [f"  {a:<21} {b}".rstrip() for a, b in rows]))
    raise SystemExit(0)


def _value(argument: str, options: dict, text: str, usage: str):
    """``text`` checked against the argument's choices and converted to its type."""
    if "choices" in options and text not in options["choices"]:
        choices = ", ".join(options["choices"])
        raise ParseError(f"{argument} must be one of {choices}, not {text!r}; {usage}")
    if "type" not in options:
        return text
    return _parse_int(text, f"{argument} must be an integer, not {text!r}; {usage}")


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The subcommand that argv names and its argument values by name
    (``--from-word`` as ``from_word``).  Every token that is not ``--json``,
    ``-h``/``--help`` or a declared option is a positional value, even when
    it starts with ``-``.  A usage error is a ParseError; help exits 0."""
    if argv and argv[0] in ("-h", "--help"):
        usage = "usage: boolrsk [-h] {" + ",".join(NAMES) + "} ..."
        _exit_with_help(usage, ABOUT, [(name, about) for name, about, _ in COMMANDS])
    if not argv or argv[0] not in NAMES:
        given = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand"
        raise ParseError(f"{given}; choose from {', '.join(NAMES)}")
    name, about, arguments = COMMANDS[NAMES.index(argv[0])]
    labels = [f"[{_label(a, o)}]" if a[0] == "-" else _label(a, o) for a, o in arguments]
    usage = " ".join(["usage: boolrsk", name, "[-h]", *labels])
    options = {a: o for a, o in arguments if a[0] == "-"}
    values = {a[2:].replace("-", "_"): None if "type" in o else False for a, o in options.items()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        option, equals, inline = token.partition("=")  # --degree=5 or --degree 5
        if token in ("-h", "--help"):
            _exit_with_help(usage, about, [(_label(a, o), o.get("help", "")) for a, o in arguments])
        elif token == "--":
            positionals += tokens  # everything after -- is a positional value
        elif token in options and "type" not in options[token]:
            values[token[2:].replace("-", "_")] = True
        elif "type" in options.get(option, {}):
            text = inline if equals else next(tokens, None)
            if text is None:
                raise ParseError(f"{option} needs a value; {usage}")
            values[option[2:].replace("-", "_")] = _value(option, options[option], text, usage)
        else:
            positionals.append(token)
    for argument, spec in [(a, o) for a, o in arguments if a[0] != "-"]:
        if "nargs" in spec:
            values[argument] = [_value(argument, spec, t, usage) for t in positionals]
            positionals = []
        elif positionals:
            values[argument] = _value(argument, spec, positionals.pop(0), usage)
        else:
            raise ParseError(f"missing argument {argument}; {usage}")
    if positionals:
        raise ParseError(f"unexpected argument {positionals[0]!r}; {usage}")
    return name, values


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe: send what is still buffered, and the
        # flush at shutdown, to devnull (the recipe in the signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(argv: list[str]) -> int:
    try:
        command, args = parse_args(argv)
        if command == "selftest":
            from . import acceptance

            known = [criterion.number for criterion in acceptance.CRITERIA]
            for number in args["criteria"]:
                if number not in known:
                    raise ParseError(f"no criterion {number}; choose from {known[0]}..{known[-1]}")
            return 0 if acceptance.run(args["criteria"] or None, out=sys.stdout) else 1
        handler = importlib.import_module(f"boolrsk.commands.{command}").run
        if "perm" in args:
            from .textio import parse_permutation, space_separated

            w = parse_permutation(args["perm"])
            result, lines = handler(w)
            head = {"input": space_separated(w.entries)}
            lines = [f"w = {w}", *lines]
        else:
            head, result, lines = handler(args)
    except (ParseError, DomainError) as exc:
        import re  # here, so a call that succeeds does not load it

        # a run of over 30 digits shows as its length, so no echoed integer floods the line
        message = re.sub(r"\d{31,}", lambda run: f"<{len(run[0])} digits>", str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    if args["json"]:
        import json  # here, so plain calls load no JSON decoder

        envelope = {"command": command, **head, "format": "json", "result": result}
        # tuples are written as arrays, and a frozenset as its sorted list
        chunks = json.JSONEncoder(indent=2, default=sorted).iterencode(envelope)
    else:
        chunks = chain(lines[:1], map("\n".__add__, lines[1:]))
    # written as it is made, 4096 chunks a write: one write per chunk doubles the time, and one
    # string of the whole output holds it all at once.  The last newline is a write of its own:
    # after the reader leaves, a large write may return short and raise nothing, and only the next
    # raises BrokenPipeError (in the last batch, `count 1..3000 | head -1` exited 0, not 3)
    while batch := "".join(islice(chunks, 4096)):
        sys.stdout.write(batch)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
