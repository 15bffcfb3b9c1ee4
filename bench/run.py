"""Benchmark for boolrsk: seeded workloads, oracle checks, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload boolean-canonical --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that has src/boolrsk.  Each workload is a
closed loop with one client: the next item starts when the previous one has
finished and been checked.  Human-readable lines come first; the last line of
standard output is one JSON object with the metrics.  With --trace 1 the run
reports per-layer metrics instead: it spends half its time untraced and half
traced on the same inputs, and the difference is the tracing overhead.
Generated inputs and spans go to bench/out/.  See WORKLOADS.md for why each
workload exists.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from bench import gen, spans, workloads  # noqa: E402

OUT = os.path.join(HERE, "out")
ITEM_CAP_S = 20.0  # an item still running after this long counts as failed
MIN_ITEMS = 100  # so that p90 has at least ten samples beyond it
# Shared machines drift in speed by tens of percent within seconds, which
# moves identical runs more than the bounds allow.  A fixed reference task,
# timed between items, tracks the drift: each item's time is reported at the
# speed where the reference takes REFERENCE_NOMINAL_S, judged from the
# reference runs nearest to the item.
REFERENCE_EVERY_S = 0.5
REFERENCE_NEIGHBOURS = 5
REFERENCE_NOMINAL_S = 0.02
SETUP_REPEATS = 15
CLI_WORKLOAD = "cli-uncrowded"

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (layer metric, unit); busy times are inclusive per public call
PER_LAYER_UNITS = {
    "permutation.is_boolean.calls": "count",
    "permutation.is_boolean.busy_s": "s",
    "permutation.is_boolean.ms_p50": "ms",
    "permutation.is_boolean.doubling_ratio": "ratio",
    "permutation.is_boolean.true_ratio": "ratio",
    "permutation.lex_least_lis.busy_s": "s",
    "permutation.lex_least_lis.doubling_ratio": "ratio",
    "words.heap_of.busy_s": "s",
    "words.heap_of.doubling_ratio": "ratio",
    "words.heap_of.errors": "count",
    "words.heap_of.elements": "count",
    "canonical.canonical_from_heap.busy_s": "s",
    "canonical.canonical_from_word.busy_s": "s",
    "canonical.canonical_from_word.doubling_ratio": "ratio",
    "rsk.rsk.busy_s": "s",
    "rsk.row2_from_canonical.busy_s": "s",
    "rsk.shape_of.busy_s": "s",
    "runstat.optimal_run_word.busy_s": "s",
    "runstat.optimal_run_word.doubling_ratio": "ratio",
    "runstat.ulam_sort.busy_s": "s",
    "runstat.run_statistic.busy_s": "s",
    "runstat.steps": "count",
    "uncrowded.crowding_witness.busy_s": "s",
    "uncrowded.crowding_witness.doubling_ratio": "ratio",
    "uncrowded.crowding_witness.span_sum": "count",
    "uncrowded.tableau_from_binary_word.busy_s": "s",
    "uncrowded.binary_word_from_tableau.busy_s": "s",
    "uncrowded.count_uncrowded.busy_s": "s",
    "uncrowded.count_uncrowded.failures": "count",
    "textio.parse_permutation.busy_s": "s",
    "textio.format_run_word.busy_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.busy_s": "s",
    "cli.main.ms_p50": "ms",
    "cli.tracebacks": "count",
    "trace.overhead_ms": "ms",
}


def reference_seconds() -> float:
    """Time one run of fixed pure-Python work: a quadratic longest increasing
    subsequence over a fixed sequence, much like the library's own loops.  It
    tracks CLI calls too: their child runs on the same CPU, and the slowest
    of them are pure-Python loops as well."""
    start = perf_counter()
    values = [(i * 7919) % 1009 for i in range(900)]
    best = [1] * len(values)
    for i, v in enumerate(values):
        best[i] = 1 + max((best[j] for j in range(i) if values[j] < v), default=0)
    return perf_counter() - start


def interpreter_seconds() -> float:
    """Wall time of a bare `python -c pass`: the floor of every CLI call."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=workloads.ROOT,
                   env=child_env(), timeout=60)
    return perf_counter() - start


def pin_to_fastest_cpu() -> int | None:
    """Pin this process, and so its children, to the allowed CPU on which the
    reference loop runs fastest.  On a shared virtual machine one CPU can run
    at half the speed of another, and the scheduler would otherwise move the
    run between them."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    timings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = statistics.median(reference_seconds() for _ in range(5))
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest})
    return fastest


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=workloads.SRC)


def child_seconds(code: str) -> float:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=workloads.ROOT, env=child_env(), timeout=60)
    return float(done.stdout)


def import_seconds(module: str) -> tuple[float, float]:
    """Medians over fresh interpreters of the time `import module` takes, raw
    and at nominal speed (each import scaled by a reference run just before
    it).  One unmeasured import first writes the bytecode caches."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    child_seconds(code)
    raw, nominal = [], []
    for _ in range(SETUP_REPEATS):
        speed = REFERENCE_NOMINAL_S / reference_seconds()
        raw.append(child_seconds(code))
        nominal.append(raw[-1] * speed)
    return statistics.median(raw), statistics.median(nominal)


def make_workload(name: str, counters: Counter):
    if name == "boolean-canonical":
        return workloads.BooleanCanonical(counters)
    if name == "ulam-sort":
        return workloads.UlamSort(counters)
    return workloads.Cli(counters, ITEM_CAP_S)


class Result:
    """Items attempted by one timed loop, their latencies and failures."""

    def __init__(self):
        self.items: list[gen.Item] = []
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.wrong = 0
        self.starts: list[float] = []
        self.samples: list[tuple[float, float]] = []  # reference runs: (when, seconds)

    def speed(self, when: float | None = None) -> float:
        """How much faster than nominal the machine ran near ``when`` (over
        the whole run when None): raw times times this are nominal times."""
        taken = [seconds for _, seconds in self.samples]
        if when is not None:
            j = bisect.bisect_left([t for t, _ in self.samples], when)
            lo = max(0, j - REFERENCE_NEIGHBOURS // 2 - 1)
            taken = taken[lo:lo + REFERENCE_NEIGHBOURS]
        return REFERENCE_NOMINAL_S / statistics.median(taken)

    def add_sample(self) -> None:
        self.samples.append((perf_counter(), reference_seconds()))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, item: gen.Item, reason: str) -> None:
        key = f"{item.kind}: {reason.split(':')[0]}"
        self.failures[key] += 1
        self.examples.setdefault(key, f"{reason[:160]} <- {item.line()[:120]}")
        # a crash or timeout is a failure; any other reason is a wrong output
        self.wrong += not reason.startswith(("traceback", "timeout", "exception"))


def run_item(workload, item):
    """Run one item under the time cap; returns (seconds, output, error)."""
    in_process = not isinstance(workload, workloads.Cli)
    if in_process:
        signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
    start = perf_counter()
    try:
        out = workload.run(item)
        return perf_counter() - start, out, None
    except (ItemTimeout, subprocess.TimeoutExpired):
        return perf_counter() - start, None, "timeout"
    except Exception as exc:  # an unexpected exception fails the item; the run goes on
        return perf_counter() - start, None, f"exception: {type(exc).__name__}: {exc}"
    finally:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)


def measure(workload, stream, seconds: float, tracer=None, sizes=None) -> Result:
    """Run whole cycles of items until ``seconds`` of wall time have passed
    and at least MIN_ITEMS items have run.  Only the item's own calls are
    timed; checks run after the clock stops."""
    cli = isinstance(workload, workloads.Cli)
    result = Result()
    start = perf_counter()
    result.add_sample()
    while len(result.items) < MIN_ITEMS or perf_counter() - start < seconds:
        for item in next(stream):
            if perf_counter() - result.samples[-1][0] >= REFERENCE_EVERY_S:
                result.add_sample()
            item_id = len(result.items)
            result.items.append(item)
            result.starts.append(perf_counter())
            if tracer:
                sizes[item_id] = item.size
                tracer.item = item_id
                root = tracer.open("item", item_id)
            elapsed, out, error = run_item(workload, item)
            if tracer:
                tracer.close(root)
                if cli:
                    workload.replay(item)
            result.latencies.append(elapsed)
            if error is None:
                try:
                    error = workload.check(item, out)
                except Exception as exc:  # output the oracles cannot read is wrong
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error is not None:
                result.fail(item, error)
    result.add_sample()
    return result


def end_to_end(result: Result, setup_s: float, peak_rss_mb: float,
               nominal: bool) -> dict[str, float]:
    """The end-to-end metrics, with times at nominal speed or raw."""
    ms = [t * 1000 * (result.speed(when) if nominal else 1.0)
          for t, when in zip(result.latencies, result.starts)]
    return {
        "items_per_s": 1000 * (len(ms) - result.failed) / sum(ms),
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "ok_ratio": (len(ms) - result.failed) / len(ms),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


STATS = {
    "calls": lambda row: row["calls"],
    "busy_s": lambda row: row["busy_s"],
    "ms_p50": lambda row: 1000 * statistics.median(row["durations"]),
    "doubling_ratio": spans.doubling_ratio,
    "true_ratio": lambda row: statistics.mean(row["values"]) if row["values"] else 0.0,
    "errors": lambda row: row["errors"],
    "failures": lambda row: row["errors"],
    "elements": lambda row: sum(row["values"]),
    "span_sum": lambda row: sum(row["values"]),
}


def per_layer(rows: dict, counters: Counter, overhead_ms: float) -> dict[str, float]:
    measured = {
        "runstat.steps": counters["runstat.steps"],
        "cli.tracebacks": counters["cli.tracebacks"],
        "cli.interpreter_ms": 1000 * statistics.median(
            interpreter_seconds() for _ in range(SETUP_REPEATS)),
        "cli.import_ms": 1000 * import_seconds("boolrsk.cli")[0],
        "trace.overhead_ms": overhead_ms,
    }
    metrics = {}
    for metric in PER_LAYER_UNITS:
        if metric in measured:
            metrics[metric] = measured[metric]
            continue
        name, _, stat = metric.rpartition(".")
        metrics[metric] = STATS[stat](rows[name]) if name in rows else 0
    return metrics


def print_layer_table(rows: dict) -> None:
    print(f"{'span':42} {'calls':>7} {'busy_s':>9} {'self_s':>9} {'ms_p50':>9} {'errors':>6}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["busy_s"]):
        print(f"{name:42} {row['calls']:7d} {row['busy_s']:9.3f} {row['self_s']:9.3f} "
              f"{1000 * statistics.median(row['durations']):9.3f} {row['errors']:6d}")


def report(result: Result, label: str) -> None:
    n = len(result.latencies)
    print(f"{label}: {n} items attempted, {result.failed} failed "
          f"(failed_ratio {result.failed / max(n, 1):.4f}), {result.wrong} wrong outputs, "
          f"{sum(result.latencies):.2f} s timed")
    for key, count in result.failures.most_common():
        print(f"  failed {count}x {key}; e.g. {result.examples[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "boolrsk", "__init__.py")):
        print(f"error: no boolrsk package under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    print(f"pinned to cpu {pin_to_fastest_cpu()}")
    counters: Counter = Counter()
    workload = make_workload(args.workload, counters)
    tag = f"{args.workload}-{args.seed}"

    if not args.trace:
        result = measure(workload, gen.cycles(args.workload, args.seed), args.seconds)
        runs = [result]
        report(result, tag)
        cli = args.workload == CLI_WORKLOAD
        setup_raw, setup_s = import_seconds("boolrsk.cli" if cli else "boolrsk")
        peak = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(peak).ru_maxrss / 1024
        raw = end_to_end(result, setup_raw, peak_rss_mb, nominal=False)
        print("raw: " + ", ".join(f"{m} = {v:.6g}" for m, v in raw.items()))
        print(f"machine speed {result.speed():.4f} x nominal, median of {len(result.samples)} "
              f"reference runs; reported times are raw times x local speed")
        metrics = end_to_end(result, setup_s, peak_rss_mb, nominal=True)
        units = END_TO_END_UNITS
        print(f"percentiles over {len(result.latencies)} item latencies, failed items included; "
              f"setup_s is the median of {SETUP_REPEATS} fresh interpreters")
    else:
        untraced = measure(workload, gen.cycles(args.workload, args.seed), args.seconds / 2)
        tracer, sizes = spans.Tracer(), {}
        if args.workload == CLI_WORKLOAD:
            import boolrsk.cli  # noqa: F401  (traced in place by the replays)
        counters.clear()
        tracer.install()
        try:
            result = measure(workload, gen.cycles(args.workload, args.seed), args.seconds / 2,
                             tracer, sizes)
        finally:
            tracer.uninstall()
        k = min(len(untraced.latencies), len(result.latencies))
        overhead_ms = 1000 * (sum(result.latencies[:k]) - sum(untraced.latencies[:k])) / k
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
        rows = tracer.table(sizes)
        metrics = per_layer(rows, counters, overhead_ms)
        units = PER_LAYER_UNITS
        runs = [untraced, result]
        report(untraced, tag + " untraced half")
        report(result, tag + " traced half")
        print_layer_table(rows)
        print(f"tracing overhead {overhead_ms:.3f} ms per item over the first {k} items")

    with open(os.path.join(OUT, f"inputs-{tag}.txt"), "w", encoding="utf-8") as handle:
        handle.writelines(item.line() + "\n" for item in runs[0].items)
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": all(r.wrong == 0 for r in runs),
        "attempted": sum(len(r.items) for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
