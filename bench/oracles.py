"""Independent oracles for the benchmark's correctness checks.

None of these calls into boolrsk.  Each uses a different algorithm from the
library code it checks: patience sorting for longest increasing subsequences,
merge sort for inversions, plain transposition products for words, direct
pairwise window recounts for crowding, the linear recurrence and a small
automaton for the counts, and a descent recursion for reduced-word counts.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations

PATTERN_3412 = (3, 4, 1, 2)


def lis_length(values) -> int:
    """Longest increasing subsequence length by patience sorting."""
    tails: list[int] = []
    for v in values:
        k = bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
        else:
            tails[k] = v
    return len(tails)


def lds_length(values) -> int:
    return lis_length([-v for v in values])


def lex_least_lis(values) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positions, values), 1-based, of the longest increasing subsequence with
    lexicographically least values.

    Patience sorting on the reversed, negated sequence gives the longest run
    starting at each position; a greedy scan then picks the least admissible
    value at each level.
    """
    n = len(values)
    longest = [0] * n
    tails: list[int] = []
    for i in range(n - 1, -1, -1):
        v = -values[i]
        k = bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
        else:
            tails[k] = v
        longest[i] = k + 1
    need = len(tails)
    positions = []
    floor_val, start = 0, 0
    while need:
        best = None
        for p in range(start, n):
            if values[p] > floor_val and longest[p] == need and (
                best is None or values[p] < values[best]
            ):
                best = p
        positions.append(best + 1)
        floor_val, start, need = values[best], best + 1, need - 1
    return tuple(positions), tuple(values[p - 1] for p in positions)


def inversions(values) -> int:
    """Inversion count by merge sort."""

    def sort(seq):
        if len(seq) <= 1:
            return seq, 0
        mid = len(seq) // 2
        left, a = sort(seq[:mid])
        right, b = sort(seq[mid:])
        merged, count, i, j = [], a + b, 0, 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                count += len(left) - i
                j += 1
        return merged + left[i:] + right[j:], count

    return sort(list(values))[1]


def product(letters, n: int) -> tuple[int, ...]:
    """One-line notation of s_{a1} s_{a2} ... for adjacent transpositions."""
    entries = list(range(1, n + 1))
    for a in letters:
        entries[a - 1], entries[a] = entries[a], entries[a - 1]
    return tuple(entries)


def multiply(w, letters, side: str) -> tuple[int, ...]:
    """w * s (side 'right') or s * w (side 'left') for the word's product s."""
    s = product(letters, len(w))
    if side == "right":
        return tuple(w[v - 1] for v in s)
    return tuple(s[v - 1] for v in w)


def is_run(letters) -> bool:
    steps = {b - a for a, b in zip(letters, letters[1:])}
    return len(letters) > 0 and steps in (set(), {1}, {-1})


def check_run_word(runs, w) -> bool:
    """runs concatenate to a reduced word for w using n - lis(w) runs."""
    letters = [a for run in runs for a in run]
    return (
        all(is_run(run) for run in runs)
        and len(runs) == len(w) - lis_length(w)
        and len(letters) == inversions(w)
        and product(letters, len(w)) == tuple(w)
    )


def forms_pattern(values, positions, pattern) -> bool:
    """The 1-based positions are increasing and carry the pattern's order."""
    if len(positions) != len(pattern) or list(positions) != sorted(set(positions)):
        return False
    if not all(1 <= p <= len(values) for p in positions):
        return False
    chosen = [values[p - 1] for p in positions]
    return sorted(range(len(chosen)), key=chosen.__getitem__) == sorted(
        range(len(pattern)), key=pattern.__getitem__
    )


def avoids_321_and_3412(w) -> bool:
    """Boolean-ness by brute force over all 4-element subsequences; small n only."""
    return lds_length(w) <= 2 and not any(
        forms_pattern(w, positions, PATTERN_3412)
        for positions in combinations(range(1, len(w) + 1), 4)
    )


def least_crowding_witness(values) -> tuple[int, int, int] | None:
    """The violating window (y, x, count) with least y, then least x, among
    windows [y, y + 2x] starting at an element; None when uncrowded.

    For a fixed start y the least violating x ends its window at or just past
    some element e_j, so x = max(1, ceil((e_j - y) / 2)) and the window holds
    e_i..e_j plus e_{j+1} when that equals y + 2x; every pair of the first
    crowded start is recounted.  A start e_i is crowded exactly when some
    j > i has j - i > ceil((e_j - e_i) / 2), that is d_j - d_i >= 2 for
    d_k = 2k - e_k, so a running maximum of d from the right skips the rest.
    """
    elements = sorted(set(values))
    k = len(elements)
    later = [float("-inf")] * k  # max of d_j over j > i
    for j in range(k - 2, -1, -1):
        later[j] = max(later[j + 1], 2 * (j + 1) - elements[j + 1])
    for i, y in enumerate(elements):
        if later[i] - (2 * i - y) < 2:
            continue
        for j in range(i, k):
            x = max(1, (elements[j] - y + 1) // 2)
            count = j - i + 1
            if j + 1 < k and elements[j + 1] == y + 2 * x:
                count += 1
            if count > x + 1:
                return (y, x, count)
    return None


def uncrowded_counts(n: int) -> tuple[int, int, int]:
    """(total, two_row, max_in_row2) for uncrowded tableaux of size n.

    Totals follow a(n) = a(n-1) + 2a(n-2) - a(n-3) from a(1..3) = 1, 2, 3.
    Words starting with 1 are counted separately by an automaton over binary
    words of length n-1 whose blocks of 1s are odd.
    """
    a = [0, 1, 2, 3]
    while len(a) <= n:
        a.append(a[-1] + 2 * a[-2] - a[-3])
    m = n - 1
    # states: after a 0 (or at the start), inside an odd block, inside an even block
    zero, odd, even = 0, 1, 0
    for _ in range(m - 1):
        zero, odd, even = zero + odd, zero + even, odd
    starting_with_one = odd + zero if m >= 1 else 0
    return a[n], a[n] - 1, starting_with_one


def odd_block_tableau(bits) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The uncrowded tableau of a binary word whose blocks of 1s are odd.

    Read index i (1-based) as the entry n + 1 - i.  A 0 sends its entry to
    row one; a block of 1s at i..i+2k sends i, i+1, i+3, ..., i+2k-1 to row
    two and i+2, i+4, ..., i+2k to row one.  Entry 1 is always in row one.
    """
    n = len(bits) + 1
    row2 = set()
    i = 0
    while i < len(bits):
        if bits[i] == 0:
            i += 1
            continue
        j = i
        while j < len(bits) and bits[j] == 1:
            j += 1
        start, end = i + 1, j
        row2.add(n + 1 - start)
        row2.update(n + 1 - k for k in range(start + 1, end, 2))
        i = j
    row1 = tuple(v for v in range(1, n + 1) if v not in row2)
    return (row1, tuple(sorted(row2))) if row2 else (row1,)


def insertion_rows(values):
    """RSK insertion and recording rows, by linear scans."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, v in enumerate(values, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([v])
                q_rows.append([step])
                break
            row = p_rows[r]
            k = next((k for k, x in enumerate(row) if x > v), None)
            if k is None:
                row.append(v)
                q_rows[r].append(step)
                break
            v, row[k] = row[k], v
            r += 1
    return [tuple(r) for r in p_rows], [tuple(r) for r in q_rows]


@lru_cache(maxsize=None)
def reduced_word_count(entries: tuple[int, ...]) -> int:
    """Number of reduced words, summing over descents one transposition down."""
    total = 0
    for i in range(len(entries) - 1):
        if entries[i] > entries[i + 1]:
            lower = list(entries)
            lower[i], lower[i + 1] = lower[i + 1], lower[i]
            total += reduced_word_count(tuple(lower))
    return total or 1


def heap_covers(word) -> set[tuple[int, int]]:
    """Order of consecutive letters in a word with distinct letters."""
    where = {a: i for i, a in enumerate(word)}
    return {
        (a, a + 1) if where[a] < where[a + 1] else (a + 1, a)
        for a in where
        if a + 1 in where
    }


def format_run_word(runs) -> str:
    render = lambda a: str(a) if a < 10 else f"({a})"
    return "[" + "·".join("".join(map(render, run)) for run in runs) + "]"


def reduced_word(w) -> list[int]:
    """A reduced word for w: undo descents until sorted, then reverse."""
    entries, undone = list(w), []
    while True:
        i = next((i for i in range(len(entries) - 1) if entries[i] > entries[i + 1]), None)
        if i is None:
            return undone[::-1]
        entries[i], entries[i + 1] = entries[i + 1], entries[i]
        undone.append(i + 1)
