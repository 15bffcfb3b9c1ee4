"""``boolrsk canonical``: the canonical reduced word, from a permutation or a word."""

from ..canonical import (
    canonical_from_heap, canonical_from_word, leftmost_letters, rightmost_letters)
from ..errors import ParseError, _in_range
from ..rsk import row2_from_canonical
from ..textio import (
    format_flat_word, format_int_set, format_run_word, parse_int_list, parse_permutation,
    space_separated)
from ..words import Word, evaluate, heap_of
from . import _canonical_payload, _checked_size


def run(args):
    lines = []
    if args["degree"] is not None and not args["from_word"]:
        raise ParseError("--degree applies only with --from-word")
    if args["from_word"]:
        letters = parse_int_list(args["word_or_perm"])
        degree = max(letters, default=0) + 1 if args["degree"] is None else args["degree"]
        _in_range(letters, 1, _checked_size("degree", degree) - 1, "letter", ParseError)
        word = Word(tuple(letters), degree)
        canonical = canonical_from_word(word)
        w = evaluate(word)
        lines.append(f"input word = {format_flat_word(word.letters)}")
    else:
        w = parse_permutation(args["word_or_perm"])
        letters = w.entries
        canonical = canonical_from_heap(heap_of(w))
    row2_p, row2_q = row2_from_canonical(canonical)
    leftmost, rightmost = leftmost_letters(canonical), rightmost_letters(canonical)
    head = {
        "input": space_separated(letters),
        "from_word": args["from_word"],
        "degree": canonical.n,
    }
    result = {
        **_canonical_payload(canonical),
        "leftmost": leftmost,
        "rightmost": rightmost,
        "row2_P": row2_p,
        "row2_Q": row2_q,
    }
    lines += [
        f"w = {w}",
        f"canonical word = {format_run_word(canonical.runs)}",
        f"leftmost letters = {format_int_set(leftmost)}",
        f"rightmost letters = {format_int_set(rightmost)}",
        f"second row of P = {format_int_set(row2_p)}",
        f"second row of Q = {format_int_set(row2_q)}",
    ]
    return head, result, lines
