"""``boolrsk count``: the number of uncrowded tableaux for a range of sizes."""

from ..errors import ParseError
from ..uncrowded import count_uncrowded_range
from . import _checked_size


def run(args):
    span = args["span"].strip()
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
