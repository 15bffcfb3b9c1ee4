"""``boolrsk heap``: the cover relations and a sketch of a boolean permutation's heap."""

from ..textio import heap_report
from ..words import heap_of


def run(w):
    heap = heap_of(w)
    return {"elements": heap.elements, "covers": heap.covers}, heap_report(heap)
