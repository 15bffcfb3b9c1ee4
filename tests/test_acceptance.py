"""The acceptance suite, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or ``boolrsk selftest`` for the same checks from the CLI.  Both go
through ``acceptance.run``, which holds the timing and the budget rule.
"""

import sys

import pytest

from boolrsk.acceptance import CRITERIA, run


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"criterion_{c.number}" for c in CRITERIA])
def test_criterion(criterion):
    assert run([criterion.number], out=sys.stdout) is True
