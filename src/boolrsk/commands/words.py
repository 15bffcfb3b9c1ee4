"""``boolrsk words``: all reduced words of a permutation, guarded to small degrees."""

from ..textio import format_flat_word
from ..words import all_reduced_words


def run(w):
    words = all_reduced_words(w)
    result = {"count": len(words), "words": [word.letters for word in words]}
    lines = [f"reduced words: {len(words)}"]
    lines += [format_flat_word(word.letters) for word in words]
    return result, lines
