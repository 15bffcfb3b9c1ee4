"""``_trusted`` builds a value with no checks.  Each call of it under src/
has a comment on the line directly above it saying why the fields are valid,
and the input boundary (textio.py, cli.py and commands/) never names it, so
outside input always meets the checked constructors."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boolrsk"
BOUNDARY = [PACKAGE / "textio.py", PACKAGE / "cli.py", *sorted((PACKAGE / "commands").glob("*.py"))]


def uncommented_trusted_calls(source):
    """Line numbers of the ``_trusted(`` calls without a comment on the line above."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "_trusted":
            continue
        line = func.end_lineno  # the line holding ``_trusted`` itself
        if line < 2 or not lines[line - 2].lstrip().startswith("#"):
            out.append(line)
    return sorted(out)


def test_every_trusted_call_in_src_has_a_comment_above_it():
    calls = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        calls += source.count("._trusted(")
        assert uncommented_trusted_calls(source) == [], path
    assert calls > 0


def test_value_alone_defines_trusted():
    # one unchecked builder, which every value type inherits
    defining = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        count = path.read_text(encoding="utf-8").count("def _trusted(")
        if count:
            defining[path.relative_to(PACKAGE).as_posix()] = count
    assert defining == {"_value.py": 1}


def test_the_input_boundary_never_names_trusted():
    assert len(BOUNDARY) > 2
    for path in BOUNDARY:
        assert "_trusted" not in path.read_text(encoding="utf-8"), path


def test_the_check_finds_an_uncommented_call():
    source = (
        "# a reason\n"
        "a = Permutation._trusted((1,))\n"
        "b = [Word._trusted((), 1)]\n"
        "c = f(\n"
        "    x,\n"
        "    # another reason\n"
        "    RunWord._trusted((1,)),\n"
        "    _trusted(y),\n"
        ")\n"
    )
    assert uncommented_trusted_calls(source) == [3, 8]
