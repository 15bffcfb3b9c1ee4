"""Parsing and display: permutations, words, tableaux, heaps, binary words.

Display mirrors the conventions used throughout the literature: one-line
notation concatenated with multi-digit values parenthesized (314627(10)589),
words in brackets with runs separated by a middle dot ([21·98·567·34]).
A heap is shown by ``heap_report``, whose one walk over the sorted elements
gives both the cover lines and the ASCII fence.  Parsers accept plain comma-
or space-separated integers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import ParseError, _parse_int

# The types named below are imported only by the parsers that construct them,
# so a call that parses integer sets loads no permutation or tableau code.


def _tokens(text: str) -> list[str]:
    return text.replace(",", " ").split()


def parse_permutation(text: str) -> Permutation:
    from .permutation import Permutation

    values = parse_int_list(text)
    if not values:
        raise ParseError("empty permutation")
    try:
        return Permutation(tuple(values))
    except ValueError as exc:
        # the message names the first value out of range or repeated; find its token
        seen: set[int] = set()
        for pos, v in enumerate(values, start=1):
            if not 1 <= v <= len(values) or v in seen:
                raise ParseError(str(exc), position=pos) from None
            seen.add(v)
        raise


def parse_int_list(text: str) -> list[int]:
    tokens = _tokens(text)
    try:
        return list(map(int, tokens))
    except ValueError:
        for pos, token in enumerate(tokens, start=1):
            _parse_int(token, f"not an integer: {token!r}", pos)
        raise


def parse_binary_word(text: str) -> BinaryWord:
    from .words import BinaryWord

    text = text.strip()
    for pos, ch in enumerate(text, start=1):
        if ch not in "01":
            raise ParseError(f"not a binary digit: {ch!r}", position=pos)
    return BinaryWord(tuple(int(ch) for ch in text))


def parse_tableau(text: str) -> StandardTableau:
    """Rows either one per line or separated by '/' on a single line."""
    from .rsk import StandardTableau

    raw = text.replace("/", "\n")
    rows = []
    for line in raw.splitlines():
        if line.strip():
            rows.append(tuple(parse_int_list(line)))
    if not rows:
        raise ParseError("empty tableau")
    try:
        return StandardTableau(tuple(rows))
    except ValueError as exc:
        raise ParseError(f"not a standard tableau: {exc}") from None


def format_letters(letters: Sequence[int]) -> str:
    """Letters or one-line entries concatenated, each past 9 in parentheses."""
    return "".join([f"{a}" if a <= 9 else f"({a})" for a in letters])


def format_flat_word(letters: Sequence[int]) -> str:
    return "[" + format_letters(letters) + "]"


def format_run_word(runs: Iterable[RunWord]) -> str:
    return "[" + "·".join([format_letters(run.letters) for run in runs]) + "]"


def format_int_set(values: Iterable[int]) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def format_tableau(tableau: StandardTableau) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in tableau.rows)


def space_separated(values: Iterable[int]) -> str:
    return " ".join(str(v) for v in values)


def heap_report(heap: Heap) -> list[str]:
    """The heap's elements, one line per adjacent pair ('i < i+1' when i comes
    first), a blank line and an ASCII fence, all from one walk: each block of
    consecutive elements starts at level 0, each later element sits one level
    above or below its left neighbour, and a slash joins the two."""
    elements = sorted(heap.elements)
    lines = [f"elements: {space_separated(elements)}"]
    if not elements:
        return [*lines, "", "(empty heap)"]
    step = len(str(elements[-1])) + 2
    marks = []  # (row key, column, text): level L has key 2L, a slash below it 2L - 1
    for idx, e in enumerate(elements):
        if idx and elements[idx - 1] == e - 1:
            up = (e - 1, e) in heap.covers
            lines.append(f"{e - 1} {'<' if up else '>'} {e}")
            marks.append((2 * level + 1 if up else 2 * level - 1, idx * step - 2, "/" if up else "\\"))
            level += 1 if up else -1
        else:
            level = 0
        marks.append((2 * level, idx * step, str(e)))
    keys = [key for key, _, _ in marks]
    top = max(keys)
    grid = [[" "] * (len(elements) * step) for _ in range(top - min(keys) + 1)]
    for key, col, text in marks:
        grid[top - key][col:col + len(text)] = text
    return [*lines, "", *("".join(row).rstrip() for row in grid)]
