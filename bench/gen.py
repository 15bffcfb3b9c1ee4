"""Seeded inputs for the benchmark workloads.

Inputs come in cycles of fixed composition, so every run sees the same mix of
item kinds and sizes whatever its seed; the seed picks the contents.  An item
is the text the program parses (for the CLI workload, its argv after the
program name) plus a hint: what the generator knows about the input, such as
the word a boolean permutation was built from, for the oracles.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from . import oracles

DEGREES = (32, 64, 128)
# distinct ladders, so per-size medians of the crowding check compare like with like
SET_SIZES = (250, 500, 1000)
CROWDED_SET_SIZES = (300, 600)
WORD_LENGTHS = (200, 400, 800)


class Item(NamedTuple):
    kind: str
    size: int
    argv: tuple[str, ...]
    hint: str = ""

    def line(self) -> str:
        return "\t".join((self.kind, str(self.size), *self.argv, "#" + self.hint))


def ints(values) -> str:
    return " ".join(map(str, values))


def boolean_permutation(rng: random.Random, n: int, share: float):
    """A boolean permutation of degree n and the distinct-letter word it
    evaluates; the word uses about ``share`` of the letters 1..n-1."""
    word = rng.sample(range(1, n), k=max(1, round(share * (n - 1))))
    return oracles.product(word, n), word


def crowded_321_avoider(rng: random.Random, n: int):
    """A permutation avoiding 321 but containing 3412: a full-support boolean
    permutation times one more letter that lengthens it, kept only when no
    decreasing subsequence of length 3 appears.  The repeated letter makes the
    length exceed the support size, so the result is not boolean."""
    while True:
        w, word = boolean_permutation(rng, n, 1.0)
        for a in rng.sample(range(1, n), k=n - 1):
            if w[a - 1] < w[a]:
                u = list(w)
                u[a - 1], u[a] = u[a], u[a - 1]
                if oracles.lds_length(u) <= 2:
                    return tuple(u), word + [a]


def ulam_scramble(rng: random.Random, n: int, moves: int) -> tuple[int, ...]:
    """The identity after a few random delete-and-reinsert moves."""
    values = list(range(1, n + 1))
    for _ in range(moves):
        v = values.pop(rng.randrange(n))
        values.insert(rng.randrange(n), v)
    return tuple(values)


def boolean_canonical(rng: random.Random, cycle: int) -> list[Item]:
    items = []
    for n in DEGREES:
        for share in (1.0, 1.0, 0.6):
            w, word = boolean_permutation(rng, n, share)
            items.append(Item("boolean", n, (ints(w),), ints(word)))
        w, word = crowded_321_avoider(rng, n)
        items.append(Item("reject-3412", n, (ints(w),), ints(word)))
    return items


def ulam_sort(rng: random.Random, cycle: int) -> list[Item]:
    items = []
    for n in DEGREES:
        items.append(Item("random", n, (ints(rng.sample(range(1, n + 1), n)),)))
        items.append(Item("near-sorted", n, (ints(ulam_scramble(rng, n, rng.randint(1, 4))),)))
    return items


def sparse_set(rng: random.Random, size: int, start: int) -> list[int]:
    """Gaps of 2 to 4 keep every window of 2x+1 integers at x+1 elements or
    fewer, so the set is uncrowded and spans about three times its size."""
    values = [start]
    while len(values) < size:
        values.append(values[-1] + rng.choice((2, 3, 4)))
    return values


def plant_triple(rng: random.Random, values: list[int]) -> list[int]:
    """Add e+1 and e+2 after some element e: the window [e, e+2] then holds
    three elements, one more than allowed."""
    e = values[rng.randrange(10, len(values) - 1)]
    return sorted(set(values) | {e + 1, e + 2})


def tableau_text(rows) -> str:
    return " / ".join(ints(row) for row in rows)


def odd_block_bits(rng: random.Random, length: int) -> str:
    bits: list[str] = []
    while len(bits) < length:
        if rng.random() < 0.5:
            bits.append("0")
        else:
            bits.extend("1" * rng.choice((1, 1, 3, 5)) + "0")
    text = "".join(bits)[:length]
    trailing = len(text) - len(text.rstrip("1"))
    if trailing and trailing % 2 == 0:
        text = text[:-1] + "0"
    return text


def crowded_tableau(rng: random.Random, size: int):
    """A standard two-row tableau whose second row has a planted crowded
    window; the j-th smallest second-row entry stays at least 2j."""
    while True:
        row2 = plant_triple(rng, sparse_set(rng, size, 2))
        if all(r >= 2 * j for j, r in enumerate(row2, start=1)):
            n = row2[-1] + rng.randint(0, 3)
            row1 = [v for v in range(1, n + 1) if v not in set(row2)]
            return (row1, row2)


MALFORMED = ("{} {}", "{} x", "0 {}")


def small_permutation(rng: random.Random, n: int, boolean: bool) -> str:
    if boolean:
        return ints(boolean_permutation(rng, n, rng.uniform(0.5, 1.0))[0])
    return ints(rng.sample(range(1, n + 1), n))


def maybe_malformed(rng: random.Random, text: str) -> str:
    """One call in ten gets text that must be rejected with exit code 2."""
    if rng.random() < 0.1:
        first = text.split()[0]
        return rng.choice(MALFORMED).format(first, first)
    return text


def cli_uncrowded(rng: random.Random, cycle: int) -> list[Item]:
    rotate = lambda k: WORD_LENGTHS[(cycle + k) % len(WORD_LENGTHS)]
    items = []
    # eight of the largest sets in 31 calls put p90 in the middle of their
    # cluster, with enough of them per run to place it steadily
    for size in SET_SIZES + SET_SIZES[-1:] * 7:
        values = sparse_set(rng, size, rng.randint(1, 50))
        items.append(Item("set", size, ("uncrowded", "set", ints(values))))
    for size in CROWDED_SET_SIZES:
        values = plant_triple(rng, sparse_set(rng, size, rng.randint(1, 50)))
        items.append(Item("set-crowded", size, ("uncrowded", "set", ints(values))))
    bits = odd_block_bits(rng, rotate(0))
    items.append(Item("bij-f", len(bits), ("bij", "f", bits)))
    bits = odd_block_bits(rng, rotate(1))
    items.append(Item("bij-g", len(bits), ("bij", "g", tableau_text(oracles.odd_block_tableau(
        tuple(map(int, bits))))), bits))
    size = rotate(2)
    if cycle % 2:
        rows = crowded_tableau(rng, size // 3)
    else:
        rows = oracles.odd_block_tableau(tuple(map(int, odd_block_bits(rng, size))))
    items.append(Item("tableau", size, ("uncrowded", "tableau", tableau_text(rows))))
    letters = sparse_set(rng, rng.randint(20, 60), rng.randint(2, 4))
    if cycle % 2:
        letters = [1, 2] + letters[1:]
    degree = 2 * letters[-1] + 2
    items.append(Item("realize", len(letters), (
        "uncrowded", "realize", ints(letters), "--degree", str(degree))))
    lo = rng.randint(1, 400)
    items.append(Item("count-range", 600, ("count", f"{lo}..{lo + 600}")))
    n = rng.randint(1, 400)
    items.append(Item("count-small", n, ("count", str(n))))
    # sizes past the recursion depth of the memoised counter crash today
    n = rng.randint(500, 1000)
    items.append(Item("count-large", n, ("count", str(n))))
    for command in ("rsk", "run", "rho", "ulam", "rsk", "run", "rho", "ulam"):
        text = small_permutation(rng, rng.randint(4, 12), False)
        items.append(Item(command, 12, (command, maybe_malformed(rng, text))))
    for command in ("canonical", "heap"):
        text = small_permutation(rng, rng.randint(4, 12), rng.random() < 0.75)
        items.append(Item(command, 12, (command, maybe_malformed(rng, text))))
    n = rng.randint(4, 12)
    _, word = boolean_permutation(rng, n, rng.uniform(0.5, 1.0))
    if rng.random() < 0.25:
        word = word + word[:1]
    items.append(Item("canonical-word", 12, (
        "canonical", "--from-word", maybe_malformed(rng, ints(word)), "--degree", str(n))))
    text = small_permutation(rng, rng.choice((4, 5, 6, 7, 8, 9, 9, 10, 12)), True)
    items.append(Item("words", 12, ("words", maybe_malformed(rng, text))))
    return [item._replace(argv=item.argv + ("--json",)) for item in items]


WORKLOADS = {
    "boolean-canonical": boolean_canonical,
    "ulam-sort": ulam_sort,
    "cli-uncrowded": cli_uncrowded,
}


def cycles(workload: str, seed: int) -> Iterator[list[Item]]:
    """Endless cycles of items; the same seed gives the same sequence."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cycle = 0
    while True:
        items = make(rng, cycle)
        rng.shuffle(items)
        yield items
        cycle += 1
