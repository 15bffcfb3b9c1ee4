"""``boolrsk rsk``: the insertion and recording tableaux of a permutation."""

from ..rsk import rsk
from ..textio import format_tableau, space_separated


def run(w):
    p, q = rsk(w)
    shape = p.shape()
    result = {"P": p.rows, "Q": q.rows, "shape": shape.parts}
    lines = [
        "P:",
        format_tableau(p),
        "Q:",
        format_tableau(q),
        f"shape: {space_separated(shape.parts)}",
    ]
    return result, lines
