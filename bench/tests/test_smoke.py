"""Smoke test of the benchmark: metric names and units, seeded inputs, and
that a wrong output counts as a failure.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import gen, run, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd,
        timeout=170,
    )


CASES = [(w["name"], 0) for w in SPEC["workloads"]] + [("ulam-sort", 1), ("cli-uncrowded", 1)]


@pytest.mark.parametrize("workload, traced", CASES)
def test_every_metric_is_reported_with_its_unit(workload, traced):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(traced))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_one_seed_gives_identical_inputs():
    def lines(seed):
        return {
            workload: [item.line() for cycle, _ in zip(gen.cycles(workload, seed), range(3))
                       for item in cycle]
            for workload in gen.WORKLOADS
        }

    assert lines(11) == lines(11)
    assert lines(11) != lines(12)


def test_wrong_canonical_word_is_a_failure(monkeypatch):
    workload = workloads.BooleanCanonical(Counter())
    real = workload.canonical.canonical_from_heap

    def drop_last_run(heap):
        c = real(heap)
        if c.inc_runs:
            return dataclasses.replace(c, inc_runs=c.inc_runs[:-1])
        return dataclasses.replace(c, dec_runs=c.dec_runs[:-1])

    monkeypatch.setattr(workload.canonical, "canonical_from_heap", drop_last_run)
    items = [item for item in next(gen.cycles("boolean-canonical", 3)) if item.size == 32]
    result = run.measure(workload, itertools.repeat(items), 0)
    booleans = sum(item.kind == "boolean" for item in result.items)
    assert booleans > 0 and result.failed == result.wrong == booleans


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "ulam-sort", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
