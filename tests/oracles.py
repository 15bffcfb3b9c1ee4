"""Independent oracles used to pin expected values in the tests.

These deliberately use different algorithms from the library code they
check: patience sorting instead of the start-anchored DP, permutation
filtering and memoized counting instead of Kahn enumeration, raw window
scans instead of element-anchored ones, word filtering and the closure under
commutation and braid moves (Matsumoto's theorem) instead of the walk over
left descents.  The slow paths that the library's fast ones replaced live here
too: pairwise inversion counting, backtracking pattern search for the
boolean test and its later test by inversion count, the suffix-minimum 321
scan, leftmost-descent rescans for a reduced word, the recursive
count of odd-block binary words, the element-by-window crowding scan, the
recursive construction of a canonical word from its leftmost letters, the
window-by-window decoding of a tableau's binary word, the quadratic DP for
the least longest increasing subsequence, the min-and-rebuild heap scan and
the sorted walk over covers for the canonical word, row insertion by linear
scan, the recursive enumeration of linear extensions, the step map built from
products of transpositions formed swap by swap, and the step list and the
multiplication by reversed runs behind optimal run words and Ulam moves, the
filter of S_n by the boolean test, and the closure of a word under swaps of
commuting letters.  The value checks that ran set and ``map`` passes before a
loop named the first violation are kept here too, for ``CanonicalWord`` and
``StandardTableau``.
"""

import itertools
from bisect import bisect_right
from functools import lru_cache
from operator import gt, le, lt

# Patience sorting; the acceptance suite ships the one copy.
from boolrsk.acceptance import lds_length_patience as lds_length
from boolrsk.acceptance import lis_length_patience as lis_length


def contains_pattern_naive(values, pattern):
    k = len(pattern)
    for positions in itertools.combinations(range(len(values)), k):
        chosen = [values[p] for p in positions]
        ranks = sorted(range(k), key=lambda i: chosen[i])
        relabeled = [0] * k
        for rank, i in enumerate(ranks, start=1):
            relabeled[i] = rank
        if tuple(relabeled) == tuple(pattern):
            return True
    return False


def linear_extension_count(elements, covers):
    """Count extensions of any cover relation, memoized on the remaining set."""
    everything = frozenset(elements)
    below = {e: frozenset(x for (x, y) in covers if y == e) for e in everything}

    @lru_cache(maxsize=None)
    def count(remaining):
        if not remaining:
            return 1
        placed = everything - remaining
        return sum(count(remaining - {e}) for e in remaining if below[e] <= placed)

    return count(everything)


def linear_extensions_brute(elements, covers):
    """All extensions by filtering raw orderings; tiny posets only."""
    out = []
    for order in itertools.permutations(sorted(elements)):
        index = {e: i for i, e in enumerate(order)}
        if all(index[x] < index[y] for x, y in covers):
            out.append(order)
    return out


def uncrowded_naive(values):
    elements = sorted(set(values))
    if not elements:
        return True
    lo, hi = elements[0], elements[-1]
    for x in range(1, hi - lo + 2):
        for y in range(lo - 2 * x, hi + 1):
            if sum(1 for e in elements if y <= e <= y + 2 * x) > x + 1:
                return False
    return True


def crowding_witness_scan(values):
    """(y, x, count) for the least element y, then the least x, whose window
    [y, y+2x] holds more than x+1 elements; every x up to half the span."""
    elements = sorted(set(values))
    if len(elements) <= 1:
        return None
    max_x = (elements[-1] - elements[0] + 1) // 2
    for lo, y in enumerate(elements):
        for x in range(1, max_x + 1):
            count = bisect_right(elements, y + 2 * x) - lo
            if count > x + 1:
                return (y, x, count)
    return None


def reduced_word_count(entries, _cache={}):
    """|R(w)| by the descent recursion: sum over descents of the count one
    transposition down.  Independent of the left-descent walk."""
    entries = tuple(entries)
    if entries in _cache:
        return _cache[entries]
    if all(v == i for i, v in enumerate(entries, start=1)):
        return 1
    total = 0
    for i in range(len(entries) - 1):
        if entries[i] > entries[i + 1]:
            shorter = list(entries)
            shorter[i], shorter[i + 1] = shorter[i + 1], shorter[i]
            total += reduced_word_count(tuple(shorter))
    _cache[entries] = total
    return total


def reduced_words_by_filtering(w):
    """R(w) by evaluating every word of length l(w); tiny degrees only."""
    from boolrsk import Word, evaluate

    out = set()
    for letters in itertools.product(range(1, w.n), repeat=w.length()):
        if evaluate(Word(letters, w.n)) == w:
            out.add(letters)
    return out


def boolean_permutations_by_filter(n):
    """The boolean elements of S_n, in lexicographic order, by testing all n! of them."""
    from boolrsk import all_permutations

    return [w for w in all_permutations(n) if w.is_boolean()]


def commutation_class_by_swaps(letters):
    """The letter tuples reached from ``letters`` by swapping adjacent letters
    that differ by more than 1."""
    seen = {tuple(letters)}
    frontier = list(seen)
    while frontier:
        word = frontier.pop()
        for i in range(len(word) - 1):
            if abs(word[i] - word[i + 1]) > 1:
                other = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    return seen


def word_moves(letters):
    """Words one commutation move or one braid move away."""
    for i in range(len(letters) - 1):
        a, b = letters[i], letters[i + 1]
        if abs(a - b) > 1:
            yield letters[:i] + (b, a) + letters[i + 2 :]
    for i in range(len(letters) - 2):
        a, b, c = letters[i], letters[i + 1], letters[i + 2]
        if a == c and abs(a - b) == 1:
            yield letters[:i] + (b, a, b) + letters[i + 3 :]


def reduced_words_by_moves(w):
    """R(w) as a set of letter tuples: by Matsumoto's theorem, the closure of
    one reduced word under commutation and braid moves."""
    start = reduced_word_by_leftmost_descent(w.entries)
    seen = {start}
    frontier = [start]
    while frontier:
        for other in word_moves(frontier.pop()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def length_pairwise(entries):
    """Inversions by checking every pair, O(n^2)."""
    n = len(entries)
    return sum(1 for i in range(n) for j in range(i + 1, n) if entries[i] > entries[j])


def is_boolean_by_length(w):
    """The boolean test by inversions: every reduced word uses each support
    letter at least once, so w is boolean exactly when l(w) = |supp(w)|."""
    return w.length() == len(w.support())


def avoids_321_by_suffix_min(entries):
    """True when no entry has a larger one on its left and a smaller one on
    its right, read off prefix maxima and suffix minima."""
    n = len(entries)
    suffix_min = [0] * (n + 1)
    suffix_min[n] = n + 1
    for i in range(n - 1, -1, -1):
        suffix_min[i] = min(suffix_min[i + 1], entries[i])
    prefix_max = 0
    for i in range(n):
        if prefix_max > entries[i] > suffix_min[i + 1]:
            return False
        if entries[i] > prefix_max:
            prefix_max = entries[i]
    return True


def pattern_witness_backtracking(entries, pattern):
    """Lexicographically least positions (1-based) forming the pattern, or None."""
    n, k = len(entries), len(pattern)

    def extend(chosen):
        d = len(chosen)
        if d == k:
            return tuple(p + 1 for p in chosen)
        start = chosen[-1] + 1 if chosen else 0
        for p in range(start, n - (k - d) + 1):
            v = entries[p]
            if all((v > entries[q]) == (pattern[d] > pattern[e]) for e, q in enumerate(chosen)):
                found = extend(chosen + [p])
                if found is not None:
                    return found
        return None

    return extend([])


def boolean_witness_by_patterns(entries):
    """(pattern, positions) for the least 321, else the least 3412, else None."""
    for pattern, name in (((3, 2, 1), "321"), ((3, 4, 1, 2), "3412")):
        positions = pattern_witness_backtracking(entries, pattern)
        if positions is not None:
            return (name, positions)
    return None


def reduced_word_by_leftmost_descent(entries):
    """Letters of one reduced word: undo the leftmost descent, rescanning from
    the start each time, and read the swaps backwards."""
    entries = list(entries)
    picked = []
    while True:
        i = next((k for k in range(len(entries) - 1) if entries[k] > entries[k + 1]), None)
        if i is None:
            break
        picked.append(i + 1)
        entries[i], entries[i + 1] = entries[i + 1], entries[i]
    return tuple(reversed(picked))


@lru_cache(maxsize=None)
def odd_block_words(m):
    """Binary words of length m whose blocks of 1s are odd, by the first block."""
    if m == 0:
        return 1
    return odd_block_words(m - 1) + odd_block_words_starting_with_one(m)


@lru_cache(maxsize=None)
def odd_block_words_starting_with_one(m):
    return sum(1 if block == m else odd_block_words(m - block - 1) for block in range(1, m + 1, 2))


def odd_block_word_list(m):
    """The binary words of length m whose blocks of 1s are odd, by filtering
    all 2^m words in lexicographic order."""
    return [
        bits
        for bits in itertools.product((0, 1), repeat=m)
        if all(len(block) % 2 == 1 for block in "".join(map(str, bits)).split("0") if block)
    ]


def realize_by_recursion(wanted):
    """(dec, inc) letter tuples of the canonical word whose runs start at the
    sorted letters ``wanted``: the smallest excess letter m_j > 2j+1 heads a
    decreasing run, the letters above it recurse after a downward shift."""
    if not wanted:
        return [], []
    if all(m == 2 * i + 1 for i, m in enumerate(wanted)):
        return [], [(2 * i + 1, 2 * i + 2) for i in range(len(wanted) - 1, -1, -1)]
    j = next(i for i, m in enumerate(wanted) if m > 2 * i + 1)
    pivot = wanted[j]
    sub_dec, sub_inc = realize_by_recursion([z - pivot for z in wanted if z > pivot])
    shift = lambda runs: [tuple(a + pivot for a in run) for run in runs]
    dec = [(pivot, pivot - 1)] + shift(sub_dec)
    inc = shift(sub_inc) + [(2 * i - 1, 2 * i) for i in range(j, 0, -1)]
    return dec, inc


def binary_word_by_windows(tableau):
    """The bits of the binary word of an uncrowded tableau, block by block:
    from the largest second-row entry z down, grow k while the window
    [z-2k, z] meets row two exactly in {z, z-1, z-3, ..., z-(2k-1)}."""

    def window_matches(row2, z, k):
        required = {z, z - 1} | {z - (2 * m - 1) for m in range(2, k + 1)}
        if not required <= row2:
            return False
        return all(e in required for e in range(z - 2 * k, z + 1) if e in row2)

    n = sum(len(row) for row in tableau.rows)
    bits = [0] * (n - 1)
    row2 = set(tableau.rows[1]) if len(tableau.rows) > 1 else set()
    while row2:
        z = max(row2)
        bits[n - z] = 1
        if z - 1 not in row2:
            row2.remove(z)
            continue
        assert window_matches(row2, z, 1), "uncrowdedness must allow k = 1"
        k = 1
        while window_matches(row2, z, k + 1):
            k += 1
        for j in range(n + 2 - z, n + 2 * k + 2 - z):
            bits[j - 1] = 1
        row2 -= {z, z - 1} | {z - (2 * m - 1) for m in range(2, k + 1)}
    return tuple(bits)


def lex_least_lis_dp(entries):
    """(positions, values) of the lexicographically least longest increasing
    subsequence: an O(n^2) DP for the longest run starting at each position,
    then a rescan for the least admissible value at each length."""
    w = entries
    n = len(w)
    longest = [1] * n
    for i in range(n - 2, -1, -1):
        best = 0
        for j in range(i + 1, n):
            if w[j] > w[i] and longest[j] > best:
                best = longest[j]
        longest[i] = best + 1
    need = max(longest)
    positions = []
    floor_val = 0
    start = 0
    while need > 0:
        pick = min(
            (p for p in range(start, n) if w[p] > floor_val and longest[p] == need),
            key=lambda p: w[p],
        )
        positions.append(pick)
        floor_val = w[pick]
        start = pick + 1
        need -= 1
    return tuple(p + 1 for p in positions), tuple(w[p] for p in positions)


def canonical_from_heap_by_min(heap):
    """The canonical word of a heap: repeatedly take the least remaining
    element, walk its run and remove the consumed interval from the set."""
    from boolrsk import CanonicalWord, RunWord

    remaining = set(heap.elements)
    dec = []
    inc = []
    while remaining:
        a = min(remaining)
        if a + 1 not in remaining:
            dec.append(RunWord((a,)))
            remaining.remove(a)
            continue
        if (a + 1, a) in heap.covers:
            b = a + 1
            while b + 1 in remaining and (b + 1, b) in heap.covers:
                b += 1
            dec.append(RunWord(tuple(range(b, a - 1, -1))))
        else:
            b = a + 1
            while b + 1 in remaining and (b, b + 1) in heap.covers:
                b += 1
            inc.insert(0, RunWord(tuple(range(a, b + 1))))
        remaining -= set(range(a, b + 1))
    return CanonicalWord(tuple(dec), tuple(inc), heap.n)


def canonical_from_heap_by_covers(heap):
    """The canonical word of a heap: sort the elements, then walk each run
    from its least element by looking its covers up one pair at a time."""
    from boolrsk import CanonicalWord, RunWord

    elements, covers = heap.elements, heap.covers
    ordered = sorted(elements)
    dec = []
    inc = []
    i = 0
    while i < len(ordered):
        a = b = ordered[i]
        if a + 1 not in elements:
            dec.append(RunWord((a,)))
        elif (a + 1, a) in covers:
            b = a + 1
            while (b + 1, b) in covers:
                b += 1
            dec.append(RunWord(tuple(range(b, a - 1, -1))))
        else:
            b = a + 1
            while (b, b + 1) in covers:
                b += 1
            inc.append(RunWord(tuple(range(a, b + 1))))
        i += b - a + 1
    inc.reverse()
    return CanonicalWord(tuple(dec), tuple(inc), heap.n)


def rsk_by_linear_scan(entries):
    """Insertion and recording rows of the entries, each bump found by
    scanning its row from the left for the first larger entry."""
    p_rows, q_rows = [], []
    for step, value in enumerate(entries, start=1):
        r = 0
        while r < len(p_rows):
            row = p_rows[r]
            k = next((k for k, x in enumerate(row) if x > value), None)
            if k is None:
                break
            row[k], value = value, row[k]
            r += 1
        if r == len(p_rows):
            p_rows.append([])
            q_rows.append([])
        p_rows[r].append(value)
        q_rows[r].append(step)
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def linear_extensions_recursive(heap):
    """Letter tuples of the heap's linear extensions in lexicographic order,
    placing one available element per level of recursion."""
    elements = sorted(heap.elements)
    below = {e: {x for (x, y) in heap.covers if y == e} for e in elements}
    placed = set()
    sequence = []

    def emit():
        if len(sequence) == len(elements):
            yield tuple(sequence)
            return
        for e in elements:
            if e not in placed and below[e] <= placed:
                placed.add(e)
                sequence.append(e)
                yield from emit()
                sequence.pop()
                placed.remove(e)

    return emit()


def times_letters(w, letters, side):
    """w times the product of the adjacent transpositions named by ``letters``,
    composed left to right: ``side="right"`` forms w * s by swapping the
    entries at positions a and a+1 for each letter a in turn, ``side="left"``
    forms s * w by swapping the values a and a+1, last letter first.  Neither
    ``evaluate`` nor ``*`` is used."""
    from boolrsk import Permutation

    entries = list(w.entries)
    if side == "right":
        for a in letters:
            entries[a - 1], entries[a] = entries[a], entries[a - 1]
    else:
        position = {v: i for i, v in enumerate(entries)}
        for a in reversed(letters):
            i, j = position[a], position[a + 1]
            entries[i], entries[j] = a + 1, a
            position[a], position[a + 1] = j, i
    return Permutation(tuple(entries))


def run_step_by_products(w):
    """The step map as products of adjacent transpositions: q, the least value
    missing from the least LIS (by the quadratic DP), is found by scanning
    1..n; the run's product is formed swap by swap on w's side by
    ``times_letters``; j is the minimum over all of 1..q-1."""
    from boolrsk import DomainError, RunStep, RunWord
    from boolrsk.runstat import (
        CASE_LEFT_OF_PREDECESSOR,
        CASE_MISSING_ONE,
        CASE_RIGHT_OF_PREDECESSOR,
    )

    if w.is_identity():
        raise DomainError("the identity permutation admits no step")
    lis_values = set(lex_least_lis_dp(w.entries)[1])
    q = next(v for v in range(1, w.n + 1) if v not in lis_values)
    if q == 1:
        run = RunWord(tuple(range(w.entries.index(1), 0, -1)))
        return RunStep(times_letters(w, run.letters, "right"), run, "right", CASE_MISSING_ONE)
    t = w.entries.index(q) + 1
    t_prev = w.entries.index(q - 1) + 1
    if t > t_prev:
        run = RunWord(tuple(range(t - 1, t_prev, -1)))
        return RunStep(
            times_letters(w, run.letters, "right"), run, "right", CASE_RIGHT_OF_PREDECESSOR
        )
    j = min(v for v in range(1, q) if w.entries.index(v) + 1 > t)
    run = RunWord(tuple(range(j, q)))
    return RunStep(times_letters(w, run.letters, "left"), run, "left", CASE_LEFT_OF_PREDECESSOR)


def optimal_run_word_by_insertion(w):
    """An optimal run word from the whole list of product-built steps, iterated
    until the identity and undone last step first: a right step's reversed run
    goes to the right end, a left step's to the front."""
    from boolrsk import RunWord

    steps = []
    u = w
    while not u.is_identity():
        steps.append(run_step_by_products(u))
        u = steps[-1].result
    runs = []
    for step in reversed(steps):
        reversed_run = RunWord(step.run.letters[::-1])
        if step.side == "right":
            runs.append(reversed_run)
        else:
            runs.insert(0, reversed_run)
    return tuple(runs)


def moves_from_runs_by_words(w, runs):
    """The (UlamMove, state) pairs of an optimal run word's runs read right to
    left, each state the product of the previous one and the reversed run."""
    from boolrsk import UlamMove

    out = []
    u = w
    for run in reversed(runs):
        letters = run.letters[::-1]
        if letters[0] <= letters[-1]:
            a, b = letters[0], letters[-1]
            move = UlamMove(a, u(b + 1))
        else:
            b, a = letters[0], letters[-1]
            move = UlamMove(b + 1, u(a - 1) if a > 1 else None)
        u = times_letters(u, letters, "right")
        out.append((move, u))
    return out


def canonical_from_word_checked(word):
    """canonical_from_word with both checks made in full up front: the word
    must be reduced, then its permutation boolean, by the pattern search."""
    from boolrsk import DomainError, NotBooleanError, canonical_from_heap, evaluate, heap_of

    w = evaluate(word)
    if len(word) != length_pairwise(w.entries):
        raise DomainError(f"word {word.letters} is not reduced")
    witness = boolean_witness_by_patterns(w.entries)
    if witness is not None:
        raise NotBooleanError(*witness)
    return canonical_from_heap(heap_of(w))


def canonical_word_error_by_prepass(dec_runs, inc_runs, n):
    """The message of the first rule these ``CanonicalWord`` fields break, or
    None: C-level set and ``map`` passes, and a loop only to name the first
    violation.  A run's least and greatest letters are its two ends."""
    if not isinstance(n, int):
        return f"degree {n} is not an integer"
    letters = [a for run in dec_runs + inc_runs for a in run.letters]
    distinct = set(letters)
    if len(distinct) < len(letters) or not distinct <= set(range(1, n)):
        seen = set()
        for a in letters:
            if not 1 <= a <= n - 1:
                return f"letter {a} out of range 1..{n - 1}"
            if a in seen:
                return f"letter {a} repeated across runs"
            seen.add(a)
    dec_first = [run.letters[0] for run in dec_runs]
    dec_last = [run.letters[-1] for run in dec_runs]
    if any(map(lt, dec_first, dec_last)):
        run = next(run for run in dec_runs if run.first < run.last)
        return f"increasing run {run.letters} in the decreasing list"
    inc_first = [run.letters[0] for run in inc_runs]
    inc_last = [run.letters[-1] for run in inc_runs]
    if not all(map(lt, inc_first, inc_last)):
        run = next(run for run in inc_runs if not run.first < run.last)
        return f"run {run.letters} in the increasing list must ascend"
    if any(map(gt, dec_first, dec_last[1:])):
        return "decreasing runs must be ordered smaller letters first"
    if any(map(lt, inc_first, inc_last[1:])):
        return "increasing runs must be ordered larger letters first"
    if n < 1:
        return "degree must be at least 1"
    return None


def standard_tableau_error_by_prepass(rows):
    """The message of the first rule these ``StandardTableau`` rows break, or
    None, with each column pair first tested by one ``map`` pass."""
    rows = tuple(tuple(row) for row in rows)
    if not rows or not all(rows):
        return "rows must be nonempty"
    entries = [v for row in rows for v in row]
    if not all(isinstance(v, int) for v in entries):
        return "entries must be integers"
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) > len(upper):
            return "row lengths must weakly decrease"
        if any(map(le, lower, upper)):
            a, b = next((a, b) for a, b in zip(upper, lower) if b <= a)
            return f"column not increasing: {a} above {b}"
    for row in rows:
        if any(map(le, row[1:], row)):
            return f"row not increasing: {row}"
    if len(set(entries)) != len(entries):
        return "entries must be distinct"
    if min(entries) < 1:
        return "entries must be positive"
    return None
