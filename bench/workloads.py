"""What one item of each workload runs, and how its output is checked.

``run`` is the timed part: the calls a user waits on.  ``check`` runs after
the clock stops and compares the output with the oracles; it returns None
when the output is right, else a short reason.  Library calls go through
module and class attributes, so a trace can wrap them in place.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

from . import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def ints(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split()))


class Library:
    """Items run in this process through the public functions of boolrsk."""

    def __init__(self, counters):
        # the package re-exports functions under some module names (boolrsk.rsk)
        for name in ("canonical", "errors", "rsk", "runstat", "textio", "uncrowded", "words"):
            setattr(self, name, importlib.import_module(f"boolrsk.{name}"))
        self.counters = counters


class BooleanCanonical(Library):
    def run(self, item):
        w = self.textio.parse_permutation(item.argv[0])
        out = {"w": w.entries, "boolean": w.is_boolean()}
        try:
            heap = self.words.heap_of(w)
        except self.errors.NotBooleanError as exc:
            out["witness"] = (exc.pattern, exc.positions)
            return out
        word = self.words.Word(ints(item.hint), w.n)
        c1 = self.canonical.canonical_from_heap(heap)
        c2 = self.canonical.canonical_from_word(word)
        p, q = self.rsk.rsk(w)
        out.update(
            heap=(heap.elements, heap.covers),
            runs=[run.letters for run in c1.runs],
            same_canonical=c1 == c2,
            row2=self.rsk.row2_from_canonical(c1),
            pq=(list(p.rows), list(q.rows)),
            uncrowded=self.uncrowded.is_uncrowded_tableau(p),
            text=self.textio.format_run_word(c1.runs),
        )
        return out

    def check(self, item, out):
        w, word = ints(item.argv[0]), ints(item.hint)
        if out["w"] != w:
            return "parse"
        if item.kind == "reject-3412":
            if out["boolean"] or "witness" not in out:
                return "accepted a permutation containing 3412"
            pattern, positions = out["witness"]
            if pattern != "3412" or not oracles.forms_pattern(
                w, positions, oracles.PATTERN_3412
            ):
                return f"bad witness {out['witness']}"
            return None
        if not out["boolean"] or "witness" in out:
            return "rejected a boolean permutation"
        if out["heap"] != (set(word), oracles.heap_covers(word)):
            return "heap"
        if not out["same_canonical"]:
            return "heap and word canonical words differ"
        if not oracles.check_run_word(out["runs"], w):
            return "canonical word is not an optimal run word for w"
        p, q = oracles.insertion_rows(w)
        if out["pq"] != (p, q):
            return "rsk"
        second = lambda rows: set(rows[1]) if len(rows) > 1 else set()
        if out["row2"] != (second(p), second(q)):
            return "second rows from the canonical word"
        if out["uncrowded"] is not True or oracles.least_crowding_witness(second(p)):
            return "insertion tableau not uncrowded"
        if out["text"] != oracles.format_run_word(out["runs"]):
            return "format"
        return None


class UlamSort(Library):
    def run(self, item):
        w = self.textio.parse_permutation(item.argv[0])
        lis = w.lex_least_lis()
        steps = self.runstat.run_statistic(w)
        self.counters["runstat.steps"] += steps
        runs = self.runstat.optimal_run_word(w)
        moves = self.runstat.ulam_sort(w)
        u = w
        for move in moves:
            u = self.runstat.apply_ulam_move(u, move)
        return {
            "w": w.entries,
            "lis": (lis.positions, lis.values),
            "run": steps,
            "runs": [run.letters for run in runs],
            "moves": [(m.from_position, m.insert_after_value) for m in moves],
            "sorted": u.is_identity(),
            "shape": self.rsk.shape_of(w).parts,
        }

    def check(self, item, out):
        w = ints(item.argv[0])
        n, lis = len(w), oracles.lis_length(w)
        if out["w"] != w:
            return "parse"
        if out["lis"] != oracles.lex_least_lis(w):
            return "lex least LIS"
        if out["run"] != n - lis or not oracles.check_run_word(out["runs"], w):
            return "run statistic or optimal run word"
        values = list(w)
        for pos, after in out["moves"]:
            v = values.pop(pos - 1)
            values.insert(0 if after is None else values.index(after) + 1, v)
        if len(out["moves"]) != n - lis or values != sorted(w) or not out["sorted"]:
            return "Ulam moves do not sort w in run(w) moves"
        shape = out["shape"]
        if sum(shape) != n or shape[0] != lis or len(shape) != oracles.lds_length(w):
            return "shape"
        return None


class Cli:
    """Items are whole `python -m boolrsk.cli` calls, one child at a time."""

    def __init__(self, counters, cap_s: float):
        self.counters = counters
        self.cap_s = cap_s
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def run(self, item):
        done = subprocess.run(
            [sys.executable, "-m", "boolrsk.cli", *item.argv],
            capture_output=True, text=True, timeout=self.cap_s, cwd=ROOT, env=self.env,
        )
        return done.returncode, done.stdout, done.stderr

    def replay(self, item) -> None:
        """Make the same call to boolrsk.cli.main in this process, for the
        trace.  Memo caches are cleared first, since every CLI call starts
        in a fresh interpreter."""
        for name, module in list(sys.modules.items()):
            if name.startswith("boolrsk"):
                for value in vars(module).values():
                    getattr(value, "cache_clear", lambda: None)()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                sys.modules["boolrsk.cli"].main(list(item.argv))
            except Exception:  # the span records it; the child call was already checked
                pass

    def check(self, item, out):
        code, stdout, stderr = out
        if "Traceback" in stderr:
            self.counters["cli.tracebacks"] += 1
            return "traceback: " + stderr.strip().splitlines()[-1]
        expected, verify = cli_expectation(item)
        if code != expected:
            return f"exit {code}, expected {expected}: {stderr.strip()[:200]}"
        if code:
            lines = stderr.strip().splitlines()
            if len(lines) != 1 or not lines[0].startswith("error: "):
                return "error is not one line"
            return verify(lines[0]) if verify else None
        return verify(json.loads(stdout)["result"])


def parse_perm(text: str):
    """The permutation the CLI should accept, or None when it must exit 2."""
    try:
        values = ints(text.replace(",", " "))
    except ValueError:
        return None
    return values if sorted(values) == list(range(1, len(values) + 1)) else None


def not_boolean_message(w):
    def verify(line):
        # error: not boolean: pattern 321 at positions (1, 2, 3)
        if "not boolean: pattern " not in line:
            return f"unexpected error {line}"
        pattern = line.split("pattern ")[1].split()[0]
        positions = ints(line.split("(")[1].split(")")[0].replace(",", " "))
        if not oracles.forms_pattern(w, positions, tuple(map(int, pattern))):
            return f"bad witness in {line}"
        return None

    return verify


def cli_expectation(item):
    """(expected exit code, verifier of the result or error line)."""
    argv = item.argv
    command = argv[0]
    if command == "uncrowded":
        if argv[1] == "tableau":
            rows = [ints(row) for row in argv[2].split("/")]
            return 0, lambda r: verify_crowding(r, rows[1] if len(rows) > 1 else ())
        values = ints(argv[2])
        if argv[1] == "set":
            return 0, lambda r: verify_crowding(r, values)
        degree = int(argv[4])
        if oracles.least_crowding_witness(set(values) | {0}):
            return 1, lambda line: None if "crowded" in line else f"unexpected {line}"
        return 0, lambda r: verify_realize(r, values, degree)
    if command == "count":
        lo, _, hi = argv[1].partition("..")
        sizes = range(int(lo), int(hi or lo) + 1)
        keys = ("n", "total", "two_row", "max_in_row2")
        want = [dict(zip(keys, (n, *oracles.uncrowded_counts(n)))) for n in sizes]
        return 0, lambda r: None if r["rows"] == want else "counts"
    if command == "bij":
        if argv[1] == "f":
            bits = tuple(map(int, argv[2]))
            want = [list(row) for row in oracles.odd_block_tableau(bits)]
            return 0, lambda r: None if r["rows"] == want else "f(x)"
        return 0, lambda r: None if r["word"] == item.hint else "g(f(x)) != x"
    if command == "canonical" and argv[1] == "--from-word":
        degree = int(argv[4])
        try:
            word = ints(argv[2])
        except ValueError:
            return 2, None
        if not all(1 <= a < degree for a in word):
            return 2, None
        w = oracles.product(word, degree)
        if oracles.inversions(w) != len(word):
            return 1, lambda line: None if "not reduced" in line else f"unexpected {line}"
        if len(set(word)) != len(word):
            return 1, not_boolean_message(w)
        return 0, lambda r: verify_canonical(r, w)
    w = parse_perm(argv[1])
    if w is None:
        return 2, None
    n, lis = len(w), oracles.lis_length(w)
    if command in ("canonical", "heap") and not oracles.avoids_321_and_3412(w):
        return 1, not_boolean_message(w)
    if command == "words" and n > 9:
        return 1, lambda line: None if "enumeration limit" in line else f"unexpected {line}"
    if command == "rho" and lis == n:
        return 1, lambda line: None if "identity" in line else f"unexpected {line}"
    return 0, lambda r: VERIFY[command](r, w)


def verify_crowding(result, values):
    want = oracles.least_crowding_witness(values)
    got = None if result["witness"] is None else tuple(result["witness"])
    if result["uncrowded"] != (want is None) or got != want:
        return f"witness {got}, expected {want}"
    return None


def verify_realize(result, letters, degree):
    runs = result["dec"] + result["inc"]
    if {run[0] for run in runs} != set(letters) or not all(oracles.is_run(r) for r in runs):
        return "runs do not start at the requested letters"
    if tuple(result["permutation"]) != oracles.product(result["letters"], degree):
        return "permutation"
    return None


def verify_canonical(result, w):
    runs = result["dec"] + result["inc"]
    p, q = oracles.insertion_rows(w)
    second = lambda rows: sorted(rows[1]) if len(rows) > 1 else []
    if not oracles.check_run_word(runs, w) or len(set(result["letters"])) != len(result["letters"]):
        return "canonical word"
    if result["row2_P"] != second(p) or result["row2_Q"] != second(q):
        return "second rows"
    if result["row2_P"] != sorted(r[0] + 1 for r in runs):
        return "leftmost letters"
    return None


def verify_rsk(result, w):
    p, q = oracles.insertion_rows(w)
    if result["P"] != [list(r) for r in p] or result["Q"] != [list(r) for r in q]:
        return "tableaux"
    return None if result["shape"] == [len(r) for r in p] else "shape"


def verify_run(result, w):
    lis = oracles.lis_length(w)
    if result["lis"] != lis or result["run"] != len(w) - lis:
        return "lis or run"
    return None if oracles.check_run_word(result["optimal_run_word"], w) else "optimal run word"


def verify_rho(result, w):
    run, side = result["run"], result["side"]
    u = oracles.multiply(w, run, side)
    positions, values = oracles.lex_least_lis(w)
    if (tuple(result["lis_positions"]), tuple(result["lis_values"])) != (positions, values):
        return "lex least LIS"
    if not oracles.is_run(run) or tuple(result["result"]) != u:
        return "step result"
    if result["length_before"] != oracles.inversions(w) or result["length_after"] != (
        oracles.inversions(w) - len(run)
    ) or oracles.inversions(u) != result["length_after"]:
        return "lengths"
    return None if oracles.lis_length(u) == len(values) + 1 else "step did not lengthen the LIS"


def verify_ulam(result, w):
    if not oracles.check_run_word(result["optimal_run_word"], w):
        return "optimal run word"
    values, states = list(w), []
    for move in result["moves"]:
        v = values.pop(move["pos"] - 1)
        after = move["after"]
        values.insert(0 if after is None else values.index(after) + 1, v)
        states.append(list(values))
    if len(states) != len(w) - oracles.lis_length(w) or result["states"] != states:
        return "moves"
    return None if not states or states[-1] == sorted(w) else "not sorted"


def verify_heap(result, w):
    word = oracles.reduced_word(w)
    want_covers = sorted(list(c) for c in oracles.heap_covers(word))
    if result["elements"] != sorted(word) or result["covers"] != want_covers:
        return "heap"
    return None


def verify_words(result, w):
    words = [tuple(x) for x in result["words"]]
    if result["count"] != len(words) or len(words) != oracles.reduced_word_count(tuple(w)):
        return "count"
    if words != sorted(set(words)) or any(oracles.product(x, len(w)) != w for x in words):
        return "words"
    length = oracles.inversions(w)
    return None if all(len(x) == length for x in words) else "not reduced"


VERIFY = {
    "rsk": verify_rsk,
    "canonical": verify_canonical,
    "run": verify_run,
    "rho": verify_rho,
    "ulam": verify_ulam,
    "heap": verify_heap,
    "words": verify_words,
}
