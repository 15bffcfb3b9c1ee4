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


def _canonical_payload(canonical) -> dict:
    return {
        "dec": [run.letters for run in canonical.dec_runs],
        "inc": [run.letters for run in canonical.inc_runs],
        "letters": canonical.letters,
    }


def _verdict(witness) -> tuple[dict, str]:
    """The result keys and the report line of a crowding check."""
    if witness is None:
        return {"uncrowded": True, "witness": None}, "uncrowded"
    y, x, count = witness
    line = f"crowded: window [{y}, {y + 2 * x}] holds {count} values (at most {x + 1} allowed)"
    return {"uncrowded": False, "witness": witness}, line
