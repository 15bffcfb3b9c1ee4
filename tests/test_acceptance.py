"""The acceptance suite, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or ``boolrsk selftest`` for the same checks from the CLI.  Both go
through ``acceptance.run``, which holds the timing and the budget rule.
"""

import io
import re
import sys
import time
from contextlib import redirect_stdout

import pytest

from boolrsk import acceptance, cli
from boolrsk.acceptance import CRITERIA, Criterion, run


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"criterion_{c.number}" for c in CRITERIA])
def test_criterion(criterion):
    assert run([criterion.number], out=sys.stdout) is True


def test_a_failed_check_and_an_overrun_budget_are_reported(monkeypatch):
    def wrong():
        raise AssertionError("2 != 3")

    def slow():
        time.sleep(0.001)
        return "done"

    monkeypatch.setattr(acceptance, "CRITERIA", (
        Criterion(1, "a check that fails", None, wrong),
        Criterion(2, "a check past its budget", 0.0, slow),
    ))
    out = io.StringIO()
    assert run(out=out) is False
    first, second = out.getvalue().splitlines()
    assert first == "FAIL 1. a check that fails: 2 != 3"
    assert re.fullmatch(r"FAIL 2\. a check past its budget: took \d+\.\ds, budget 0s", second)
    for number in ("1", "2"):
        with redirect_stdout(io.StringIO()) as shown:
            assert cli.main(["selftest", number]) == 1
        assert shown.getvalue().startswith(f"FAIL {number}. ")
