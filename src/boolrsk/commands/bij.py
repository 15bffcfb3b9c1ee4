"""``boolrsk bij``: the bijection between binary words and uncrowded tableaux."""

import os

from ..errors import ParseError
from ..textio import format_tableau, parse_binary_word, parse_tableau, space_separated
from ..uncrowded import binary_word_from_tableau, tableau_from_binary_word


def run(args):
    if args["direction"] == "f":
        word = parse_binary_word(args["value"])
        tableau = tableau_from_binary_word(word)
        lines = [f"x = {word}", "T:", format_tableau(tableau)]
        return {"direction": "f", "input": str(word)}, {"rows": tableau.rows}, lines
    # direction g: inline rows ("a b / c d") or the path of a regular file, never a FIFO or device
    text = args["value"]
    if os.path.isfile(text):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"file {text!r} is not UTF-8 text (byte {exc.start})") from None
        except OSError:
            pass
    tableau = parse_tableau(text)
    word = binary_word_from_tableau(tableau)
    head = {"direction": "g", "input": " / ".join(space_separated(row) for row in tableau.rows)}
    return head, {"word": str(word)}, ["T:", format_tableau(tableau), f"x = {word}"]
