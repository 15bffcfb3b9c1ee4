"""Spans around the public functions of boolrsk, recorded from outside.

``Tracer.install`` replaces each traced function, wherever a boolrsk module
holds it, with a wrapper that records a span: name, start, end, parent span
and item id.  Calls the library makes internally go through the same
attributes, so they nest under their caller.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "textio": ("parse_permutation", "format_run_word"),
    "permutation": ("Permutation.is_boolean", "Permutation.lex_least_lis"),
    "words": ("heap_of",),
    "canonical": ("canonical_from_heap", "canonical_from_word"),
    "rsk": ("rsk", "row2_from_canonical", "shape_of"),
    "runstat": ("optimal_run_word", "ulam_sort", "run_statistic", "run_step", "apply_ulam_move"),
    "uncrowded": (
        "crowding_witness", "is_uncrowded_tableau", "tableau_from_binary_word",
        "binary_word_from_tableau", "count_uncrowded", "realize_leftmost_letters",
    ),
    "cli": ("main",),
}


def _value_span(args, result):
    values = args[0] if args else ()
    if isinstance(values, (set, frozenset, tuple, list)) and values:
        return max(values) - min(values)
    return 0


# what a span keeps of a call besides its timing, by traced name
MEASURE = {
    "permutation.is_boolean": lambda args, result: bool(result),
    "words.heap_of": lambda args, result: len(result.elements),
    "uncrowded.crowding_witness": _value_span,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, item, error, value]
        self.stack: list[int] = []
        self.item = None
        self.saved: list[tuple[object, str, object]] = []

    def open(self, name: str, item) -> list:
        span = [len(self.spans), name, perf_counter(), None,
                self.stack[-1] if self.stack else None, item, None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list, error: BaseException | None = None) -> None:
        span[3] = perf_counter()
        if error is not None:
            span[6] = type(error).__name__
        self.stack.pop()

    def wrap(self, name: str, fn):
        measure = MEASURE.get(name)

        def traced(*args, **kwargs):
            span = self.open(name, self.item)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span)
            if measure:
                span[7] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("boolrsk")]
        for module_name, names in TRACED.items():
            module = sys.modules.get(f"boolrsk.{module_name}")
            if module is None:  # boolrsk.cli is imported only by the CLI workload
                continue
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                metric = f"{module_name}.{attr}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    self._replace(owner, attr, self.wrap(metric, getattr(owner, attr)))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(metric, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, key, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "item", "error", "value")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def table(self, sizes: dict) -> dict[str, dict]:
        """Per traced name: calls, inclusive and self seconds, errors, values,
        and per-call durations grouped by the size of the item they served."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        rows: dict[str, dict] = {}
        for span in self.spans:
            row = rows.setdefault(span[1], {
                "calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0,
                "values": [], "durations": [], "by_size": defaultdict(list)})
            duration = span[3] - span[2]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child_time[span[0]]
            row["errors"] += span[6] is not None
            row["durations"].append(duration)
            row["by_size"][sizes.get(span[5])].append(duration)
            if span[7] is not None:
                row["values"].append(span[7])
        return rows


def doubling_ratio(row: dict | None) -> float:
    """Median call time at the largest item size over that at half the size;
    0 when either size has no calls."""
    if not row:
        return 0.0
    by_size = {size: times for size, times in row["by_size"].items() if size}
    if not by_size:
        return 0.0
    top = max(by_size)
    half = by_size.get(top / 2) or by_size.get(top // 2)
    if not half:
        return 0.0
    return statistics.median(by_size[top]) / statistics.median(half)
