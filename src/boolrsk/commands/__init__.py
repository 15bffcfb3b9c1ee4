"""One handler module per CLI subcommand, each with a ``run``.  No handler
imports ``boolrsk.cli``: run as ``python -m boolrsk.cli`` it is ``__main__``,
and importing it would compile it a second time."""

from ..errors import ParseError

MAX_SIZE = 10_000  # the largest count size or word degree a call may ask for


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


def _verdict(witness) -> tuple[dict, str]:
    """The result keys and the report line of a crowding check."""
    if witness is None:
        return {"uncrowded": True, "witness": None}, "uncrowded"
    y, x, count = witness
    line = f"crowded: window [{y}, {y + 2 * x}] holds {count} values (at most {x + 1} allowed)"
    return {"uncrowded": False, "witness": list(witness)}, line
