"""``boolrsk rsk``: the insertion and recording tableaux of a permutation."""

from ..rsk import rsk, shape_of
from ..textio import format_tableau, space_separated
from . import _tableau_payload


def run(w):
    p, q = rsk(w)
    shape = shape_of(w)
    result = {"P": _tableau_payload(p), "Q": _tableau_payload(q), "shape": list(shape.parts)}
    lines = [
        "P:",
        format_tableau(p),
        "Q:",
        format_tableau(q),
        f"shape: {space_separated(shape.parts)}",
    ]
    return result, lines
