"""Every file under src/ and tests/ parses as Python 3.10, the oldest version
that pyproject.toml accepts and that CI tests.  A newer interpreter runs
the suite here, so without this check syntax from 3.11 or later would only
fail in the 3.10 job."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def python_files():
    return sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def test_every_file_parses_as_python_3_10():
    files = python_files()
    assert any(path.name == "canonical.py" for path in files)
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_check_rejects_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(newer, feature_version=(3, 10))
