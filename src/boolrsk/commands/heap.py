"""``boolrsk heap``: the cover relations and a sketch of a boolean permutation's heap."""

from ..textio import heap_cover_lines, heap_sketch, space_separated
from ..words import heap_of


def run(w):
    heap = heap_of(w)
    result = {"elements": heap.elements, "covers": heap.covers}
    lines = [f"elements: {space_separated(sorted(heap.elements))}"]
    lines += heap_cover_lines(heap)
    lines.append("")
    lines.append(heap_sketch(heap))
    return result, lines
