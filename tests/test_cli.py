"""Command-line behaviour: output, envelopes, exit codes, round trips."""

import hashlib
import importlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolrsk import all_permutations, boolean_permutations, cli
from boolrsk.commands import MAX_SIZE as MAX
from oracles import length_pairwise


def run_python_fresh(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def run_cli_fresh(*argv):
    return run_python_fresh("-m", "boolrsk.cli", *argv)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_success(self):
        code, out, _ = run_cli("rsk", "1 2 3")
        assert code == 0
        assert "1 2 3" in out

    def test_domain_error_is_one(self):
        code, _, err = run_cli("canonical", "3 2 1")
        assert code == 1
        assert "pattern 321 at positions (1, 2, 3)" in err

    def test_parse_error_is_two(self):
        code, _, err = run_cli("rsk", "2 2 1")
        assert code == 2
        assert "duplicate" in err

    def test_bad_token_is_two(self):
        code, _, err = run_cli("rsk", "1 x 3")
        assert code == 2
        assert "not an integer" in err

    def test_integer_at_the_digit_limit_is_accepted(self):
        code, out, _ = run_cli("uncrowded", "set", "1," + "7" * sys.get_int_max_str_digits())
        assert code == 0
        assert out.endswith("uncrowded\n")

    def test_integer_past_the_digit_limit_names_its_length_not_its_digits(self):
        limit = sys.get_int_max_str_digits()
        code, _, err = run_cli("uncrowded", "set", "1,-" + "7" * (limit + 1))
        assert code == 2
        assert err == (f"error: integer of {limit + 1} digits, past the limit of {limit}"
                       " (at token 2)\n")
        assert len(err) < 200

    @pytest.mark.parametrize("argv", [
        ("count", "1..{}"), ("count", "{}"), ("selftest", "{}"),
        ("uncrowded", "realize", "1", "--degree", "{}"), ("canonical", "--from-word", "1", "--degree={}"),
    ], ids=["count range", "count size", "selftest", "--degree", "--degree="])
    def test_every_integer_argument_past_the_digit_limit_names_its_length(self, argv):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(*(a.format("7" * (limit + 1)) for a in argv))
        assert (code, out) == (2, "")
        assert err == f"error: integer of {limit + 1} digits, past the limit of {limit}\n"
        assert len(err) < 200

    @pytest.mark.parametrize("argv, message", [
        (("count", "1..{}"), "range end <{} digits> exceeds 10000"),
        (("count", "{}..1"), "bad range: '<{} digits>..1'"),
        (("selftest", "{}"), "no criterion <{} digits>; choose from 1..9"),
        (("rsk", "1,{}"), "value <{} digits> out of range 1..2 (at token 2)"),
        (("uncrowded", "realize", "1", "--degree", "{}"), "degree <{} digits> exceeds 10000"),
        (("canonical", "--from-word", "1", "--degree", "{}"), "degree <{} digits> exceeds 10000"),
    ], ids=["range end", "range start", "selftest", "rsk value", "realize degree", "word degree"])
    def test_an_integer_at_the_digit_limit_is_echoed_by_its_length(self, argv, message):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(*(a.format("7" * limit) for a in argv))
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(limit)}\n"
        assert len(err) < 200

    def test_an_echoed_integer_of_at_most_30_digits_is_written_whole(self):
        message = "error: value {} out of range 1..2 (at token 2)\n"
        assert run_cli("rsk", "1," + "7" * 30)[2] == message.format("7" * 30)
        assert run_cli("rsk", "1," + "7" * 31)[2] == message.format("<31 digits>")

    @pytest.mark.parametrize("argv, message", [
        (("count", "1..x"), "not a range: '1..x'"),
        (("count", "5..3"), "bad range: '5..3'"),
        (("selftest", "x"), "criteria must be an integer, not 'x'; usage: boolrsk selftest [-h] [criteria ...]"),
        (("uncrowded", "realize", "1", "--degree", "x"), "--degree must be an integer, not 'x'; usage: "
         "boolrsk uncrowded [-h] [--json] [--degree DEGREE] {set,tableau,realize} value"),
    ])
    def test_a_short_bad_integer_is_echoed(self, argv, message):
        assert run_cli(*argv) == (2, "", f"error: {message}\n")

    def test_degree_guard_is_one(self):
        code, _, err = run_cli("words", "1 2 3 4 5 6 7 8 9 10")
        assert code == 1
        assert "limit" in err

    def test_crowded_realize_is_one(self):
        code, _, err = run_cli("uncrowded", "realize", "1 2", "--degree", "9")
        assert code == 1
        assert "crowded" in err

    def test_three_row_tableau_is_one(self):
        code, out, err = run_cli("uncrowded", "tableau", "1 4 / 2 5 / 3 6")
        assert code == 1
        assert out == ""
        assert err == "error: tableau has 3 rows; at most two allowed\n"

    def test_rho_identity_is_one(self):
        code, _, err = run_cli("rho", "1 2 3")
        assert code == 1
        assert "identity" in err

    def test_word_degree_zero_is_two(self):
        done = run_cli_fresh("canonical", "--from-word", "1", "--degree", "0")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: degree must be at least 1\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("uncrowded", "realize", "9", "--degree", "5"), "letter 9 out of range 1..4"),
            (("uncrowded", "realize", "1", "--degree", "1"), "letter 1 out of range 1..0"),
            (("uncrowded", "realize", "9 0 3", "--degree", "5"), "letter 0 out of range 1..4"),
            (("canonical", "--from-word", "5", "--degree", "3"), "letter 5 out of range 1..2"),
            (("canonical", "--from-word", "1 9 0", "--degree", "5"), "letter 9 out of range 1..4"),
        ],
    )
    @pytest.mark.parametrize("form", [(), ("--json",)], ids=["plain", "json"])
    def test_letter_out_of_range_is_two(self, argv, message, form):
        assert run_cli(*argv, *form) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("canonical", "--degree", "5", "2 1"), "--degree applies only with --from-word"),
            (("uncrowded", "set", "1 3", "--degree", "4"), "--degree applies only to realize"),
            (("uncrowded", "tableau", "1 2 / 3 4", "--degree", "4"),
             "--degree applies only to realize"),
        ],
    )
    @pytest.mark.parametrize("form", [(), ("--json",)], ids=["plain", "json"])
    def test_degree_where_nothing_reads_it_is_two(self, argv, message, form):
        assert run_cli(*argv, *form) == (2, "", f"error: {message}\n")

    def test_count_past_the_index_range_is_two(self):
        done = run_cli_fresh("count", "1..99999999999999999999")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: range end 99999999999999999999 exceeds {MAX}\n"

    def test_ceiling_lies_below_the_digit_limit(self):
        # from n = 16 816 on, the count totals have more than the 4300 digits
        # that int-to-string conversion allows
        assert 10_000 <= MAX <= 16_815

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("uncrowded", "realize", "1", "--degree", "0"), "degree must be at least 1"),
            (("uncrowded", "realize", "", "--degree", "0"), "degree must be at least 1"),
            (("canonical", "--from-word", str(MAX)), f"degree {MAX + 1} exceeds {MAX}"),
            (("uncrowded", "realize", "1", "--degree", str(MAX + 1)), f"degree {MAX + 1} exceeds {MAX}"),
            (("count", f"{MAX - 1}..{MAX + 1}"), f"range end {MAX + 1} exceeds {MAX}"),
        ],
    )
    def test_size_guard_is_two(self, argv, message):
        done = run_cli_fresh(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", str(MAX)),
            ("canonical", "--from-word", "1", "--degree", str(MAX)),
            ("uncrowded", "realize", "1", "--degree", str(MAX)),
        ],
        ids=["count", "canonical --from-word", "uncrowded realize"],
    )
    def test_the_ceiling_itself_is_accepted(self, argv):
        done = run_cli_fresh(*argv, "--json")
        assert done.returncode == 0
        assert done.stderr == ""
        assert json.loads(done.stdout)["command"] == argv[0]


# Every kind of rejected input, as (argv, fresh).  The cases at and past the
# size ceiling run in a fresh interpreter, where a missing guard shows as the
# traceback it ends in.
ERROR_INPUTS = [
    (("count", str(MAX + 1)), True),
    (("count", f"1..{MAX + 1}"), True),
    (("count", "16816"), True),
    (("count", "1..99999999999999999999"), True),
    (("canonical", "--from-word", str(MAX)), True),
    (("canonical", "--from-word", "1", "--degree", str(MAX + 1)), True),
    (("uncrowded", "realize", "1", "--degree", str(MAX + 1)), True),
    (("canonical", "--from-word", "1000000000000"), True),
    (("canonical", "--from-word", "1", "--degree", "1000000000000"), True),
    (("canonical", "--from-word", "100000000000000000000000"), True),
    (("uncrowded", "realize", "1", "--degree", "1000000000000"), True),
    (("canonical", "--from-word", "1", "--degree", "0"), False),
    (("canonical", "--from-word", "-5"), False),
    (("uncrowded", "realize", "1", "--degree", "0"), False),
    (("uncrowded", "realize", "", "--degree", "0"), False),
    (("uncrowded", "realize", "1 3"), False),
    (("uncrowded", "realize", "1 2", "--degree", "9"), False),
    (("uncrowded", "tableau", "1 4 / 2 5 / 3 6"), False),
    (("uncrowded", "tableau", "2 1 / 3"), False),
    (("uncrowded", "set", "a"), False),
    (("rho", "1"), False),
    (("canonical", "3 2 1"), False),
    (("heap", "3 4 1 2"), False),
    (("canonical", "--from-word", "1 1"), False),
    (("words", "1 2 3 4 5 6 7 8 9 10"), False),
    (("rsk", "2 2 1"), False),
    (("run", "1 x 3"), False),
    (("ulam", ""), False),
    (("count", "0"), False),
    (("count", "1..x"), False),
    (("bij", "f", "102"), False),
    (("bij", "g", ""), False),
    (("bij", "g", "1 2 3 / 4 5 6"), False),
]


@pytest.mark.parametrize("form", [(), ("--json",)], ids=["plain", "json"])
@pytest.mark.parametrize(
    "argv,fresh", ERROR_INPUTS, ids=[" ".join(argv)[:60] for argv, _ in ERROR_INPUTS]
)
def test_every_error_is_one_line_and_exit_one_or_two(argv, fresh, form):
    if fresh:
        done = run_cli_fresh(*argv, *form)
        code, out, err = done.returncode, done.stdout, done.stderr
    else:
        code, out, err = run_cli(*argv, *form)
    assert "Traceback" not in err
    assert code in (1, 2)
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("rsk", "-3,4"),
        ("bij", "g", "-x"),
        (),
        ("frobnicate", "1 2"),
        ("canonical", "--from-word", "1", "--degree", "x"),
        ("canonical", "--from-word", "1", "--degree"),
        ("uncrowded", "set"),
        ("rsk", "1 2", "3"),
        ("uncrowded", "bogus", "1 2"),
        ("selftest", "x"),
        ("selftest", "99"),
        ("selftest", "--", "-1"),
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_usage_error_is_one_line_and_exit_two(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("form", [(), ("--json",)], ids=["plain", "json"])
def test_values_that_start_with_a_dash_are_values(form):
    assert run_cli("uncrowded", "set", "-1,2", *form) == run_cli("uncrowded", "set", "-1 2", *form)
    assert run_cli("uncrowded", "set", *form, "--", "-1,2")[0] == 0
    assert run_cli("rsk", "-3,4", *form)[2] == "error: value -3 out of range 1..2 (at token 1)\n"


def test_closed_output_pipe_ends_quietly_in_exit_three():
    # as `boolrsk count 1..3000 | head -1`: the reader leaves after one line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for form, first_line in [((), "n total two-row n-in-row2\n"), (("--json",), "{\n")]:
        child = subprocess.Popen(
            [sys.executable, "-m", "boolrsk.cli", "count", "1..3000", *form],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        assert child.stdout.readline() == first_line
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 3
        assert err == ""


def test_unexpected_exception_is_one_line_and_exit_three(monkeypatch):
    import boolrsk.commands.rsk

    def broken(w):
        raise RuntimeError("boom")

    monkeypatch.setattr(boolrsk.commands.rsk, "run", broken)
    assert run_cli("rsk", "1 2") == (3, "", "error: internal error: RuntimeError: boom\n")


class TestPlainOutput:
    def test_comma_separated_input(self):
        code, out, _ = run_cli("rsk", "3,1,4,2")
        assert code == 0
        assert "w = 3142" in out

    def test_canonical_display_convention(self):
        _, out, _ = run_cli("canonical", "3 1 4 6 2 7 10 5 8 9")
        assert "canonical word = [21·98·567·34]" in out
        assert "second row of P = {3, 4, 6, 10}" in out

    def test_count_table(self):
        _, out, _ = run_cli("count", "1..10")
        lines = out.strip().splitlines()
        assert lines[0] == "n total two-row n-in-row2"
        assert lines[1] == "1 1 0 0"
        assert lines[10] == "10 197 196 89"

    @pytest.mark.parametrize("size", ["600", "1000"])
    def test_large_count_in_fresh_process(self, size):
        # a fresh interpreter, at the recursion limit it starts with
        done = run_cli_fresh("count", size)
        assert done.returncode == 0
        assert "Traceback" not in done.stderr
        assert done.stdout.strip().splitlines()[-1].startswith(f"{size} ")

    def test_realize_1500_letters_in_fresh_process(self):
        # one letter per level of the construction, past the recursion limit
        letters = " ".join(str(a) for a in range(2, 4500, 3))
        done = run_cli_fresh("uncrowded", "realize", letters, "--degree", "10000")
        assert done.returncode == 0
        assert "Traceback" not in done.stderr
        assert done.stdout.startswith("letters = {2, 5, 8,")

    def test_import_leaves_acceptance_suite_unloaded(self):
        done = run_python_fresh(
            "-c", "import sys, boolrsk.cli; print('boolrsk.acceptance' in sys.modules)"
        )
        assert done.stdout.strip() == "False"

    def test_rsk_inserts_once(self, monkeypatch):
        # the shape is read off P, not computed by a second insertion
        rsk_module = importlib.import_module("boolrsk.rsk")  # the package's rsk is the function
        insert, calls = rsk_module._insert, []

        def counted(values):
            calls.append(values)
            return insert(values)

        monkeypatch.setattr(rsk_module, "_insert", counted)
        code, out, _ = run_cli("rsk", "3 1 4 2")
        assert code == 0
        assert out.endswith("shape: 2 2\n")
        assert calls == [(3, 1, 4, 2)]

    @pytest.mark.parametrize(
        "argv",
        [("3 1 4 2",), ("--json", "3 1 4 2"), ("--from-word", "2 1 3"),
         ("--json", "--from-word", "2 1 3")],
    )
    def test_canonical_reads_each_letter_set_once(self, monkeypatch, argv):
        # the JSON result and the printed lines share one set of each
        handler = importlib.import_module("boolrsk.commands.canonical")
        calls = []
        for name in ("leftmost_letters", "rightmost_letters"):
            real = getattr(handler, name)

            def counted(canonical, real=real, name=name):
                calls.append(name)
                return real(canonical)

            monkeypatch.setattr(handler, name, counted)
        code, _, _ = run_cli("canonical", *argv)
        assert code == 0
        assert sorted(calls) == ["leftmost_letters", "rightmost_letters"]

    def test_ulam_moves(self):
        _, out, _ = run_cli("ulam", "5 1 6 4 2 7 3 8")
        assert "1) move pos=6 after=3 -> 51642378" in out
        assert "4) move pos=2 after=3 -> 12345678" in out

    def test_bij_file_input(self, tmp_path):
        path = tmp_path / "tableau.txt"
        path.write_text("1 2 3 6 7 9 12 14 16 17\n4 5 8 10 11 13 15 18\n")
        code, out, _ = run_cli("bij", "g", str(path))
        assert code == 0
        assert "x = 10010101111101110" in out

    def test_bij_reads_no_fifo(self, tmp_path):
        # a FIFO is not a regular file, so its path is parsed as tableau rows;
        # opening it would wait for a writer forever
        path = tmp_path / "rows"
        os.mkfifo(path)
        done = run_cli_fresh("bij", "g", str(path))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_bij_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "tableau.txt"
        path.write_bytes(b"\xff1 2\n3\n")
        assert run_cli("bij", "g", str(path)) == (
            2, "", f"error: file {str(path)!r} is not UTF-8 text (byte 0)\n"
        )

    def test_bij_file_that_cannot_be_opened_is_read_as_rows(self, tmp_path, monkeypatch):
        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        bij = importlib.import_module("boolrsk.commands.bij")
        monkeypatch.setattr(bij, "open", refused, raising=False)
        path = tmp_path / "tableau.txt"
        path.write_text("1 2\n3 4\n")
        # the path's '/' separates rows, so its first token is its first component
        first = str(path).strip("/").split("/")[0]
        assert run_cli("bij", "g", str(path)) == (
            2, "", f"error: not an integer: {first!r} (at token 1)\n"
        )

    def test_words_listing(self):
        _, out, _ = run_cli("words", "3 1 4 5 6 9 2 7 8")
        assert "reduced words: 99" in out
        assert "[21873456]" in out
        assert "[87213456]" in out

    # sha256 of the reports on 1 2 ... 7998 8000 7999, as printed when the
    # missing-value line still rebuilt the LIS value set per candidate
    RHO_8000_DIGESTS = {
        "plain": "07ac5f4d6d012a09bad5bafa00a3a5f5b0dcfd53b809672201b5c23a540fe5b3",
        "json": "b4d6e84e32309cedc5608bdd80c48b7ed411a868ada390f5617277c0dcf30c3a",
    }

    @pytest.mark.parametrize("form", ["plain", "json"])
    def test_rho_at_degree_8000_is_fast_and_unchanged(self, form):
        n = 8000
        perm = " ".join(map(str, [*range(1, n - 1), n, n - 1]))
        start = time.perf_counter()
        code, out, _ = run_cli("rho", perm, *(["--json"] if form == "json" else []))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.RHO_8000_DIGESTS[form]
        assert elapsed < 0.5


def test_rho_lengths_are_the_inversion_counts_on_s2_to_s6():
    # a step shortens by the length of its run, and the result's length is counted afresh
    for n in range(2, 7):
        for w in all_permutations(n):
            if w.is_identity():
                continue
            code, out, err = run_cli("rho", "--json", " ".join(map(str, w.entries)))
            assert (code, err) == (0, ""), w
            step = json.loads(out)["result"]
            assert step["length_after"] == length_pairwise(step["result"]), w
            assert step["length_before"] - step["length_after"] == len(step["run"]), w


def test_every_heap_report_up_to_degree_7():
    # heap_of's rule: a comes before a + 1 exactly when w(a + 1) > a + 1
    for n in range(1, 8):
        for w in boolean_permutations(n):
            code, out, err = run_cli("heap", " ".join(map(str, w.entries)))
            assert (code, err) == (0, "")
            report, sketch = out.split("\n\n")
            elements = sorted(w.support())
            first = [a for a in elements if a + 1 in elements and w.entries[a] > a + 1]
            expected = [f"{a} {'<' if a in first else '>'} {a + 1}"
                        for a in elements if a + 1 in elements]
            header = f"elements: {' '.join(map(str, elements))}"
            assert report.splitlines()[1:] == [header, *expected]
            # each label once, and a + 1 drawn above a exactly when a comes first
            row = {}
            for r, line in enumerate(sketch.splitlines()):
                for token in line.split():
                    if token.isdigit():
                        assert int(token) not in row, w
                        row[int(token)] = r
            assert sorted(row) == elements, w
            assert [a for a in elements if a + 1 in row and row[a + 1] < row[a]] == first, w


class TestJsonEnvelopes:
    COMMANDS = [
        ("rsk", "3 1 4 6 2 7 10 5 8 9"),
        ("canonical", "3 1 4 6 2 7 10 5 8 9"),
        ("run", "5 1 6 4 2 7 3 8"),
        ("rho", "5 1 6 4 2 7 3 8"),
        ("ulam", "5 1 6 4 2 7 3 8"),
        ("heap", "3 1 4 5 6 9 2 7 8"),
        ("words", "5 1 3 4 2"),
        ("count", "1..6"),
    ]

    @pytest.mark.parametrize("command,value", COMMANDS)
    def test_roundtrip_on_echoed_input(self, command, value):
        code, out, _ = run_cli(command, value, "--json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["command"] == command
        assert envelope["format"] == "json"
        code2, out2, _ = run_cli(command, envelope["input"], "--json")
        assert code2 == 0
        assert json.loads(out2) == envelope

    def test_roundtrip_uncrowded_set(self):
        code, out, _ = run_cli("uncrowded", "set", "4 6 7 8", "--json")
        assert code == 0
        envelope = json.loads(out)
        code2, out2, _ = run_cli("uncrowded", "set", envelope["input"], "--json")
        assert json.loads(out2) == envelope
        assert envelope["result"]["uncrowded"] is False
        assert envelope["result"]["witness"] == [4, 2, 4]

    def test_roundtrip_bij_g(self):
        tableau = "1 2 3 6 7 9 12 14 16 17 / 4 5 8 10 11 13 15 18"
        code, out, _ = run_cli("bij", "g", tableau, "--json")
        assert code == 0
        envelope = json.loads(out)
        code2, out2, _ = run_cli("bij", "g", envelope["input"], "--json")
        assert json.loads(out2) == envelope
        assert envelope["result"]["word"] == "10010101111101110"

    def test_roundtrip_bij_f(self):
        code, out, _ = run_cli("bij", "f", "10010101111101110", "--json")
        envelope = json.loads(out)
        code2, out2, _ = run_cli("bij", "f", envelope["input"], "--json")
        assert json.loads(out2) == envelope

    def test_roundtrip_uncrowded_tableau(self):
        code, out, _ = run_cli("uncrowded", "tableau", "1 2 / 3 4", "--json")
        assert code == 0
        envelope = json.loads(out)
        _, out2, _ = run_cli("uncrowded", "tableau", envelope["input"], "--json")
        assert json.loads(out2) == envelope

    def test_roundtrip_uncrowded_realize(self):
        code, out, _ = run_cli("uncrowded", "realize", "1 3 5", "--degree", "7", "--json")
        assert code == 0
        envelope = json.loads(out)
        _, out2, _ = run_cli(
            "uncrowded", "realize", envelope["input"], "--degree", "7", "--json"
        )
        assert json.loads(out2) == envelope

    def test_roundtrip_canonical_from_word(self):
        code, out, _ = run_cli("canonical", "--from-word", "2 5 9 1 3 6 8 4 7", "--json")
        assert code == 0
        envelope = json.loads(out)
        _, out2, _ = run_cli("canonical", "--from-word", envelope["input"], "--json")
        assert json.loads(out2) == envelope

    def test_degree_flag_keeps_trailing_fixed_points(self):
        code, out, _ = run_cli("canonical", "--from-word", "1", "--degree", "5", "--json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["degree"] == 5

    def test_canonical_of_identity(self):
        code, out, _ = run_cli("canonical", "1 2 3")
        assert code == 0
        assert "canonical word = []" in out

    def test_canonical_from_word_payload(self):
        code, out, _ = run_cli(
            "canonical", "--from-word", "4 7 1 10 2 6 8", "--json"
        )
        assert code == 0
        envelope = json.loads(out)
        assert envelope["degree"] == 11
        assert envelope["result"]["dec"] == [[4], [7, 6], [8], [10]]
        assert envelope["result"]["inc"] == [[1, 2]]

    def test_stable_key_order(self):
        _, first, _ = run_cli("rsk", "3 1 4 2", "--json")
        _, second, _ = run_cli("rsk", "3 1 4 2", "--json")
        assert first == second
        keys = list(json.loads(first).keys())
        assert keys == ["command", "input", "format", "result"]

    PLAIN_KEYS = ["command", "input", "format", "result"]
    KEY_ORDERS = [
        (("rsk", "3 1 4 2"), PLAIN_KEYS),
        (("canonical", "3 1 4 2"), ["command", "input", "from_word", "degree", "format", "result"]),
        (
            ("canonical", "--from-word", "1 3", "--degree", "5"),
            ["command", "input", "from_word", "degree", "format", "result"],
        ),
        (("run", "3 1 4 2"), PLAIN_KEYS),
        (("rho", "3 1 4 2"), PLAIN_KEYS),
        (("ulam", "3 1 4 2"), PLAIN_KEYS),
        (("heap", "3 1 4 2"), PLAIN_KEYS),
        (("words", "3 1 4 2"), PLAIN_KEYS),
        (("uncrowded", "set", "4 6 7 8"), ["command", "mode", "input", "format", "result"]),
        (("uncrowded", "tableau", "1 2 / 3 4"), ["command", "mode", "input", "format", "result"]),
        (
            ("uncrowded", "realize", "1 3", "--degree", "5"),
            ["command", "mode", "input", "degree", "format", "result"],
        ),
        (("count", "1..4"), PLAIN_KEYS),
        (("bij", "f", "101"), ["command", "direction", "input", "format", "result"]),
        (("bij", "g", "1 2 / 3 4"), ["command", "direction", "input", "format", "result"]),
    ]

    @pytest.mark.parametrize(
        "argv,keys",
        KEY_ORDERS,
        ids=[" ".join(a for a in argv[:2] if not a[0].isdigit()) for argv, _ in KEY_ORDERS],
    )
    def test_key_order_of_every_subcommand(self, argv, keys):
        code, out, _ = run_cli(*argv, "--json")
        assert code == 0
        envelope = json.loads(out)
        assert list(envelope.keys()) == keys
        assert envelope["command"] == argv[0]
        assert envelope["format"] == "json"

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in KEY_ORDERS],
        ids=[" ".join(a for a in argv[:2] if not a[0].isdigit()) for argv, _ in KEY_ORDERS],
    )
    def test_envelope_text_is_the_indented_dump_of_its_values(self, argv):
        # the text is json's own indented form: no value reached the encoder as another kind
        code, out, _ = run_cli(*argv, "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestSelftestCommand:
    def test_single_fast_criterion(self):
        code, out, _ = run_cli("selftest", "2")
        assert code == 0
        assert out.startswith("PASS 2.")


USAGE_LINES = {
    "rsk": "usage: boolrsk rsk [-h] [--json] perm",
    "canonical": "usage: boolrsk canonical [-h] [--json] [--from-word] [--degree DEGREE] word_or_perm",
    "run": "usage: boolrsk run [-h] [--json] perm",
    "rho": "usage: boolrsk rho [-h] [--json] perm",
    "ulam": "usage: boolrsk ulam [-h] [--json] perm",
    "heap": "usage: boolrsk heap [-h] [--json] perm",
    "words": "usage: boolrsk words [-h] [--json] perm",
    "uncrowded": "usage: boolrsk uncrowded [-h] [--json] [--degree DEGREE] {set,tableau,realize} value",
    "count": "usage: boolrsk count [-h] [--json] span",
    "bij": "usage: boolrsk bij [-h] [--json] {f,g} value",
    "selftest": "usage: boolrsk selftest [-h] [criteria ...]",
}


TOP_USAGE = "usage: boolrsk [-h] {rsk,canonical,run,rho,ulam,heap,words,uncrowded,count,bij,selftest} ..."


@pytest.mark.parametrize("command", [*USAGE_LINES, "--help", "-h"])
def test_usage_line_of_every_subcommand(command):
    top = command.startswith("-")  # the top-level help, which lists the subcommands
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as done:
        cli.main([command] if top else [command, "--help"])
    assert done.value.code == 0
    usage, *_, listing = out.getvalue().split("\n\n")
    assert usage == (TOP_USAGE if top else USAGE_LINES[command])
    if top:
        names = [line.split()[0] for line in listing.splitlines()]
        assert names == [*cli.NAMES, "-h,"]


def test_every_readme_cli_example_succeeds():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S) for line in block.splitlines()]
    calls = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("boolrsk ")]
    calls = [argv for argv in calls if argv[0] != "selftest"]  # test_acceptance.py runs those
    assert calls
    for argv in calls:
        code, _, err = run_cli(*argv)
        assert (code, err) == (0, ""), argv


# Argument lists for every subcommand: permutations, integer lists with
# boundary sizes and junk tokens, binary words, ranges and degrees.
TOKEN = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from(["0", str(MAX), str(MAX + 1), "16816", "x", "..", "/", "1..4", "(10)", ""]),
)
TEXT = st.builds(
    lambda tokens, sep: sep.join(tokens),
    st.lists(TOKEN, max_size=12),
    st.sampled_from([" ", ",", " / "]),
)
PERMUTATION = st.integers(1, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(lambda w: " ".join(map(str, w)))
)
VALUE = st.one_of(PERMUTATION, TEXT, st.text("01", max_size=30))
DEGREE = st.one_of(
    st.just([]),
    (st.integers(-2, 40) | st.sampled_from([MAX, MAX + 1])).map(lambda d: ["--degree", str(d)]),
)
SPAN = st.one_of(
    st.integers(-2, 300).map(str),
    st.builds(lambda lo, hi: f"{lo}..{hi}", st.integers(-2, 300), st.integers(-2, 300)),
    st.sampled_from(["600", "16816", f"{MAX - 1}..{MAX + 1}", "1..x", "..", ""]),
    TEXT,
)
PERMUTATION_COMMAND = st.sampled_from(["rsk", "run", "rho", "ulam", "heap", "words"])
ARGV = st.builds(
    lambda argv, form: argv + form,
    st.one_of(
        st.builds(lambda c, v: [c, v], PERMUTATION_COMMAND, PERMUTATION | VALUE),
        st.builds(
            lambda v, word, d: ["canonical", v, *word, *d],
            VALUE, st.sampled_from([[], ["--from-word"]]), DEGREE,
        ),
        st.builds(
            lambda mode, v, d: ["uncrowded", mode, v, *d],
            st.sampled_from(["set", "tableau", "realize"]), VALUE, DEGREE,
        ),
        st.builds(lambda span: ["count", span], SPAN),
        st.builds(lambda d, v: ["bij", d, v], st.sampled_from(["f", "g"]), VALUE),
    ),
    st.sampled_from([[], ["--json"]]),
) | st.builds(  # criterion 5 (the goldens) or none: the whole suite takes seconds
    lambda c: ["selftest", *c], st.lists(st.sampled_from(["0", "5", "10"]), min_size=1, max_size=2)
)


@settings(derandomize=True, max_examples=300)
@given(ARGV)
@example(["count", "600"])
@example(["count", "16816"])
@example(["uncrowded", "set", " ".join(str(v) for v in range(1, 40_000, 2))])
@example(["uncrowded", "realize", " ".join(str(a) for a in range(2, 4500, 3)), "--degree", str(MAX)])
@example(["canonical", "--from-word", "1", "--degree", "0"])
def test_any_argument_list_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 2
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        if "--json" in argv:
            assert json.loads(out)["command"] == argv[0]
