"""Parsing and display: permutations, words, tableaux, heaps, binary words.

Display mirrors the conventions used throughout the literature: one-line
notation concatenated with multi-digit values parenthesized (314627(10)589),
words in brackets with runs separated by a middle dot ([21·98·567·34]).
Parsers accept plain comma- or space-separated integers.
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


def heap_cover_lines(heap: Heap) -> list[str]:
    """One line per adjacent pair in the heap: 'i < i+1' when i comes first."""
    lines = []
    for i in sorted(heap.elements):
        if i + 1 in heap.elements:
            lines.append(f"{i} < {i + 1}" if (i, i + 1) in heap.covers else f"{i} > {i + 1}")
    return lines


def heap_sketch(heap: Heap) -> str:
    """A small ASCII fence: elements placed left to right, raised or lowered
    according to the cover orientations, slashes between neighbours."""
    elements = sorted(heap.elements)
    if not elements:
        return "(empty heap)"
    height: dict[int, int] = {}
    for idx, e in enumerate(elements):
        if idx == 0 or elements[idx - 1] != e - 1:
            height[e] = 0
        elif (e - 1, e) in heap.covers:
            height[e] = height[e - 1] + 1
        else:
            height[e] = height[e - 1] - 1
    width = max(len(str(e)) for e in elements)
    step = width + 2
    column = {e: i * step for i, e in enumerate(elements)}
    top = max(height.values())
    bottom = min(height.values())
    grid = [[" "] * (column[elements[-1]] + width) for _ in range(2 * (top - bottom) + 1)]
    for e in elements:
        row = 2 * (top - height[e])
        for k, ch in enumerate(str(e)):
            grid[row][column[e] + k] = ch
    for e in elements:
        if e + 1 in height and abs(height[e + 1] - height[e]) == 1:
            row = 2 * (top - max(height[e], height[e + 1])) + 1
            col = column[e] + width
            grid[row][col] = "/" if height[e + 1] > height[e] else "\\"
    return "\n".join("".join(line).rstrip() for line in grid)
