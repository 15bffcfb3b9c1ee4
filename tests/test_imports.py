"""Import structure: each module loads alone, `import boolrsk` loads no
submodule, the public namespace resolves lazily to the same names and
objects, and a CLI call loads only the modules its subcommand runs.

Each check that depends on what is loaded runs in a fresh interpreter."""

import ast
import pathlib

import pytest

import boolrsk
from test_cli import run_python_fresh

LIBRARY_MODULES = [
    "_value",
    "acceptance",
    "canonical",
    "cli",
    "errors",
    "permutation",
    "rsk",
    "runstat",
    "textio",
    "uncrowded",
    "words",
]
COMMAND_MODULES = ["commands"] + [
    f"commands.{name}"
    for name in ("bij", "canonical", "count", "heap", "rho", "rsk", "run", "ulam", "uncrowded", "words")
]

PUBLIC_NAMES = [
    "BinaryWord", "CanonicalWord", "CrowdedError", "DegreeLimitError", "DomainError", "Heap",
    "NotBooleanError", "ParseError", "Permutation", "RunStep", "RunWord", "Shape",
    "StandardTableau", "Subsequence", "UlamMove", "UncrowdedCounts", "Word",
    "all_permutations", "all_reduced_words", "apply_ulam_move", "binary_word_from_tableau",
    "boolean_permutations", "canonical", "canonical_from_heap", "canonical_from_word",
    "count_uncrowded", "count_uncrowded_range", "crowding_witness", "errors", "evaluate",
    "heap_of", "identity", "is_feasible_second_row", "is_uncrowded",
    "is_uncrowded_tableau", "leftmost_letters", "linear_extensions", "odd_run_words",
    "optimal_run_word", "permutation", "realize_leftmost_letters",
    "rightmost_letters", "row2_from_canonical", "rsk", "run_decomposition", "run_statistic",
    "run_step", "runstat", "shape_of", "tableau_from_binary_word", "ulam_sort", "uncrowded",
    "words",
]
SUBMODULE_NAMES = ["canonical", "errors", "permutation", "runstat", "uncrowded", "words"]

SUBCOMMANDS = "rsk,canonical,run,rho,ulam,heap,words,uncrowded,count,bij,selftest"

# Runs `python -m boolrsk.cli ARGV`, then prints the loaded boolrsk modules
# and whether dataclasses, inspect, argparse, gettext, locale and json were
# loaded, as the last line.
STDLIB_PROBED = ("dataclasses", "inspect", "argparse", "gettext", "locale", "json")
CLI_MODULES = f"STDLIB_PROBED = {STDLIB_PROBED}" + """
import runpy, sys
sys.argv = ["boolrsk"] + sys.argv[1:]
try:
    runpy.run_module("boolrsk.cli", run_name="__main__")
except SystemExit:
    pass
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "boolrsk")
print(" ".join(loaded), *(m in sys.modules for m in STDLIB_PROBED))
"""

# Each subcommand form with the library modules it loads, in sorted order; it
# also loads the handler package ``commands`` and its own ``commands.<name>``.
# A call loads ``canonical`` exactly when it builds a CanonicalWord, the one
# dataclass, and only then loads dataclasses and inspect.
CALLS = [
    (["uncrowded", "set", "1 3 5", "--json"], "errors textio uncrowded"),
    (["count", "5", "--json"], "errors uncrowded"),
    (["uncrowded", "tableau", "1 2 / 3", "--json"], "_value errors rsk textio uncrowded"),
    (["bij", "f", "101", "--json"], "_value errors rsk textio uncrowded words"),
    (["bij", "g", "1 2 4 / 3", "--json"], "_value errors rsk textio uncrowded words"),
    (["rsk", "3 1 2", "--json"], "_value errors permutation rsk textio"),
    (["run", "3 1 2", "--json"], "_value errors permutation runstat textio words"),
    (["rho", "3 1 2", "--json"], "_value errors permutation runstat textio words"),
    (["ulam", "3 1 2", "--json"], "_value errors permutation runstat textio words"),
    (["heap", "3 1 2", "--json"], "_value errors permutation textio words"),
    (["words", "3 1 2", "--json"], "_value errors permutation textio words"),
    (["canonical", "3 1 2", "--json"], "_value canonical errors permutation rsk textio words"),
    (
        ["canonical", "--from-word", "2 1", "--json"],
        "_value canonical errors permutation rsk textio words",
    ),
    (
        ["uncrowded", "realize", "1 3", "--degree", "5", "--json"],
        "_value canonical errors permutation textio uncrowded words",
    ),
]


def fresh_lines(*args):
    done = run_python_fresh(*args)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("module", LIBRARY_MODULES + COMMAND_MODULES)
def test_module_imports_first_and_alone(module):
    done = run_python_fresh("-c", f"import boolrsk.{module}")
    assert done.returncode == 0, done.stderr


def test_help_lists_every_subcommand_in_order():
    done = run_python_fresh("-m", "boolrsk.cli", "--help")
    assert done.returncode == 0
    assert "{" + SUBCOMMANDS + "}" in done.stdout


def test_import_loads_no_submodule():
    lines = fresh_lines(
        "-c", "import sys, boolrsk; print([m for m in sys.modules if m.startswith('boolrsk.')])"
    )
    assert lines == ["[]"]


@pytest.mark.parametrize("argv, modules", CALLS)
@pytest.mark.parametrize("no_site", [False, True])
def test_uncrowded_calls_load_only_what_they_run(argv, modules, no_site):
    # every subcommand, despite the name, which the first two cases had alone
    flags = ["-S"] if no_site else []
    *output, last = fresh_lines(*flags, "-c", CLI_MODULES, *argv)
    loaded, dataclasses_loaded, inspect_loaded, *parser_modules, json_loaded = last.rsplit(" ", 6)
    modules = sorted([*modules.split(), "commands", f"commands.{argv[0]}"])
    assert loaded.split() == ["boolrsk"] + [f"boolrsk.{m}" for m in modules]
    assert output[0] == "{"
    if no_site:
        assert dataclasses_loaded == inspect_loaded == str("canonical" in modules)
    assert parser_modules == ["False"] * 3  # no argparse, gettext or locale
    assert json_loaded == "True"  # every call here prints a JSON envelope


def test_only_a_json_envelope_loads_json():
    # the import, a plain call and a failing one write no JSON
    assert fresh_lines("-S", "-c", "import sys, boolrsk.cli; print('json' in sys.modules)") == [
        "False"
    ]
    for argv in (["count", "5"], ["count", "0"], ["count", "0", "--json"]):
        *_, last = fresh_lines("-S", "-c", CLI_MODULES, *argv)
        assert last.endswith(" False"), argv


def test_only_canonical_imports_dataclasses():
    package = pathlib.Path(boolrsk.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.add(path.name)
    assert importers == {"canonical.py"}


def imported_modules(path):
    """The absolute names of the modules a file of the package imports; a
    ``from package import name`` counts as importing package.name too."""
    package = ["boolrsk", *path.parent.relative_to(pathlib.Path(boolrsk.__file__).parent).parts]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_no_module_imports_argparse_and_no_handler_imports_cli():
    package = pathlib.Path(boolrsk.__file__).parent
    # relative imports resolve, from the package and from the handler package
    assert "boolrsk.errors" in imported_modules(package / "cli.py")
    assert {"boolrsk.commands", "boolrsk.rsk"} <= imported_modules(
        package / "commands" / "canonical.py"
    )
    for path in package.rglob("*.py"):
        modules = imported_modules(path)
        assert not any(m.split(".")[0] == "argparse" for m in modules), path
        if path.parent.name == "commands":
            assert not any(m.split(".")[:2] == ["boolrsk", "cli"] for m in modules), path


class TestPublicApi:
    def test_all_names(self):
        assert boolrsk.__all__ == PUBLIC_NAMES
        assert set(PUBLIC_NAMES) <= set(dir(boolrsk))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from boolrsk import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            assert namespace[name] is getattr(boolrsk, name)
        assert callable(namespace["rsk"])

    def test_exports_are_the_module_objects(self):
        assert boolrsk.Permutation is boolrsk.permutation.Permutation
        assert boolrsk.BinaryWord is boolrsk.words.BinaryWord
        assert boolrsk.rsk.__module__ == "boolrsk.rsk"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            boolrsk.nonexistent

    def test_submodules_resolve_without_an_import(self):
        code = (
            "import boolrsk, types; "
            f"print(all(isinstance(getattr(boolrsk, m), types.ModuleType) for m in {SUBMODULE_NAMES}))"
        )
        assert fresh_lines("-c", code) == ["True"]

    @pytest.mark.parametrize(
        "code",
        [
            "import boolrsk.rsk; from boolrsk import rsk",
            "from boolrsk import rsk; import boolrsk.rsk",
            "import boolrsk.uncrowded, boolrsk.textio, boolrsk.rsk; from boolrsk import rsk",
        ],
    )
    def test_rsk_is_the_function_after_importing_its_module(self, code):
        lines = fresh_lines("-c", code + "; import boolrsk; print(rsk is boolrsk.rsk, callable(rsk))")
        assert lines == ["True True"]

    def test_uncrowded_counts_is_a_named_tuple(self):
        counts = boolrsk.count_uncrowded(10)
        assert repr(counts) == "UncrowdedCounts(total=197, two_row=196, max_in_row2=89)"
        assert counts._fields == ("total", "two_row", "max_in_row2")
