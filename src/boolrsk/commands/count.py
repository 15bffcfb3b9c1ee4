"""``boolrsk count``: the number of uncrowded tableaux for a range of sizes."""

from ..errors import ParseError, _parse_int
from ..uncrowded import count_uncrowded_range
from . import _checked_size


def run(args):
    span = args["span"].strip()
    if ".." in span:
        lo_text, hi_text = span.split("..", 1)
    else:
        lo_text = hi_text = span
    lo, hi = (_parse_int(text, f"not a range: {span!r}") for text in (lo_text, hi_text))
    if lo < 1 or hi < lo:
        raise ParseError(f"bad range: {span!r}")
    _checked_size("range end", hi)
    # the field names of UncrowdedCounts are the JSON keys; a report line joins a row's values
    rows = [{"n": n, **c._asdict()} for n, c in enumerate(count_uncrowded_range(lo, hi), start=lo)]
    lines = ["n total two-row n-in-row2", *(" ".join(map(str, row.values())) for row in rows)]
    return {"input": span}, {"rows": rows}, lines
