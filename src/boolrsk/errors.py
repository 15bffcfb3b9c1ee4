"""Exception types shared by the library and the command-line front end."""

import sys


class DomainError(ValueError):
    """Input is well-formed but outside an operation's domain."""


class NotBooleanError(DomainError):
    """Permutation contains a 321 or 3412 pattern."""

    def __init__(self, pattern: str, positions: tuple[int, ...]):
        self.pattern = pattern
        self.positions = positions
        super().__init__(f"not boolean: pattern {pattern} at positions {positions}")


class CrowdedError(DomainError):
    """Integer set packs more than x+1 values into some window of 2x+1 integers.

    ``witness`` is that window as (y, x, count), when known.
    """

    def __init__(self, message: str, witness: tuple[int, int, int] | None = None):
        self.witness = witness
        super().__init__(message)


class DegreeLimitError(DomainError):
    """Exhaustive enumeration requested past its degree or word-count guard."""


class ParseError(ValueError):
    """Malformed textual input; carries the offending token position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at token {position})"
        super().__init__(message)


def _integer(value, what: str) -> None:
    """The integer rule, for a degree or an element: ``value`` must be an ``int``."""
    if not isinstance(value, int):
        raise ValueError(f"{what} {value} is not an integer")


def _in_range(values, lo: int, hi: int, what: str, error=ValueError) -> None:
    """The range rule: ``error`` names the first of ``values`` not an ``int`` in lo..hi."""
    for v in values:
        if not (isinstance(v, int) and lo <= v <= hi):
            raise error(f"{what} {v} out of range {lo}..{hi}")


def _parse_int(text: str, message: str, position: int | None = None) -> int:
    """``int(text)``, or a ParseError: ``message``, or for a decimal token past
    Python's digit limit one that names its length instead of echoing it."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():  # int() rejects such a token only past the digit limit
            limit = sys.get_int_max_str_digits()
            message = f"integer of {len(digits)} digits, past the limit of {limit}"
        raise ParseError(message, position) from None
