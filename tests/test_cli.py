"""Command-line behavior: content, determinism, exit codes."""

import ast
import contextlib
import io
import json
import math
import os
import re
import shlex
import struct
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symppt import (
    Bipartition,
    Spectrum,
    Witness,
    builtin_witness,
    cli,
    maxmixed_pt_spectrum,
    ptrans,
    sappt_threshold_qubits,
    symstate,
    witness,
    witness_to_json,
)
from symppt.cli import main

from oracles import render_reference, scan_rows_per_p, tilted_eigh
from conftest import load_script


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The refusals: every argv the CLI refuses, with exit code 1 (2 for a numerical failure),
# nothing on stdout and one stderr line.  REFUSALS[group][case] is one row, (argv, witness
# file, exit code, stderr line); the test that names a group runs it.  FILE stands for the
# path of the row's witness file in its argv and stderr: the row writes its text or bytes
# there, makes a directory there for DIRECTORY, or writes nothing for None.
FILE = "{file}"
WF = f"--witness-file {FILE}"
DIRECTORY = object()


def refusal(command, message, file=None, code=1):
    """A row of the argv that a shell splits command into.  Its stderr is the whole line,
    or, for a message that ends in "...", the stable prefix of a line in argparse's wording."""
    line = ("symppt: error: " if code == 1 else "symppt: numerical failure: ") + message
    return shlex.split(command), file, code, line[:-3] if line.endswith("...") else line + "\n"


# Witness-file contents the CLI refuses, with the message that names the reader.
READER = "witness_from_json: "
NUMBERS = READER + "coefficients must be JSON numbers, got "
ARRAY = READER + "diagonal must be a JSON array, got "
INTEGER = READER + "dim must be a JSON integer, got "
BAD_WITNESS_FILES = {
    "missing-corner": ('{"diagonal": [1, 0, 1]}', READER + "missing key(s) corner"),
    "missing-diagonal": ('{"corner": -1}', READER + "missing key(s) diagonal"),
    "not-an-object": ("[1, 0, 1]", READER + "expected a JSON object, got list"),
    "corner-inf": ('{"diagonal": [1, 0, 1], "corner": "inf"}', NUMBERS + '"inf"'),
    "corner-nan": ('{"diagonal": [1, 0, 1], "corner": "nan"}', NUMBERS + '"nan"'),
    "diagonal-infinity": ('{"diagonal": [Infinity, 0, Infinity], "corner": -1}',
                          "Witness: diagonal and corner must be finite"),
    "diagonal-string": ('{"name": "x", "diagonal": "10001", "corner": true}', ARRAY + '"10001"'),
    "diagonal-number": ('{"diagonal": 1, "corner": -1}', ARRAY + "1"),
    "diagonal-object": ('{"diagonal": {"0": 1, "1": 1}, "corner": -1}', ARRAY + '{"0": 1, "1": 1}'),
    "diagonal-string-entry": ('{"diagonal": ["1", 0, "1"], "corner": -1}', NUMBERS + '"1"'),
    "diagonal-bool-entry": ('{"diagonal": [true, false, true], "corner": -1}', NUMBERS + "true"),
    "diagonal-null-entry": ('{"diagonal": [1, null, 1], "corner": -1}', NUMBERS + "null"),
    "corner-string": ('{"diagonal": [1, 0, 1], "corner": "-1"}', NUMBERS + '"-1"'),
    "corner-bool": ('{"diagonal": [1, 0, 1], "corner": true}', NUMBERS + "true"),
    "corner-null": ('{"diagonal": [1, 0, 1], "corner": null}', NUMBERS + "null"),
    "corner-past-double": ('{"diagonal": [1, 0, 1], "corner": -1%s}' % ("0" * 400),
                           READER + "int too large to convert to float"),
    "dim-float": ('{"dim": 3.0, "diagonal": [1, 0, 1], "corner": -1}', INTEGER + "3.0"),
    "dim-string": ('{"dim": "3", "diagonal": [1, 0, 1], "corner": -1}', INTEGER + '"3"'),
    "dim-bool": ('{"dim": true, "diagonal": [1, 0, 1], "corner": -1}', INTEGER + "true"),
    "dim-null": ('{"dim": null, "diagonal": [1, 0, 1], "corner": -1}', INTEGER + "null"),
    "missing-file": (None, f"[Errno 2] No such file or directory: '{FILE}'"),
    "directory": (DIRECTORY, f"[Errno 21] Is a directory: '{FILE}'"),
    "nested-too-deep": ("[" * 100_000 + "]" * 100_000,
                        READER + "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    # 100 bytes led by an x86-64 ELF header: byte 24, 0xd0, opens a UTF-8 pair that byte 25 does not close.
    "not-utf-8": (b"\x7fELF\x02\x01\x01" + bytes(9) + b"\x03\x00\x3e\x00\x01\x00\x00\x00\xd0\x10" + bytes(74),
                  READER + "'utf-8' codec can't decode byte 0xd0 in position 24: invalid continuation byte"),
    "utf-8-bom": ('\ufeff{"diagonal": [1, 0, 1], "corner": -1}',
                  READER + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "utf-16": ('{"diagonal": [1, 0, 1], "corner": -1}'.encode("utf-16"),
               READER + "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "empty": ("", READER + "Expecting value: line 1 column 1 (char 0)"),
}

# Witness files whose product-state values leave double range: C(1100, 550)
# converts to no double, and 1e300 * C(600, a) overflows to inf, then nan.
NONFINITE_WITNESS_FILES = {
    "n=1100": {"name": "wide", "diagonal": [1.0] * 1101, "corner": -1.0},
    "1e300": {"name": "huge", "diagonal": [1e300] * 601, "corner": -1.0},
}

# Witness files whose detection threshold or GHZ-mixture expectation leaves double range:
# Tr W, <GHZ|W|GHZ> or the corner sum overflows to inf, and inf - inf is nan.
THRESHOLD_OVERFLOW = "detection_threshold: witness custom: <GHZ|W|GHZ> - Tr(W)/(n+1) leaves double range"
OVERFLOW_COMMANDS = {
    "threshold": ({"diagonal": [1e308, 1e308], "corner": 0}, "witness --threshold", THRESHOLD_OVERFLOW),
    "report": ({"diagonal": [1.7e308, 0, 1.7e308], "corner": 0.8e308}, "witness --p 0", THRESHOLD_OVERFLOW),
    "scan": ({"diagonal": [1.7e308, 0, 1.7e308], "corner": 1.7e308}, "scan --p-from 0 --p-to 0.1 --steps 2",
             "witness custom: expectation leaves double range"),
}

# The commands that read a witness file, the two output formats, and a name of each other JSON type.
READS = {"validate": f"witness --validate {WF}", "report": f"witness {WF}", "threshold": f"witness --threshold {WF}",
         "scan": f"scan --p-from 0 --p-to 1 {WF}"}
FORMATS = {"default": "", "json": " --format json"}
NAME_TYPES = {"null": "null", "number": "5", "bool": "true", "array": '["a"]', "object": '{"a": 1}'}
ONLY_FLAGS = [(["--validate"], ["--threshold"]), (["--threshold"], ["--p", "0.97"]), (["--validate"], ["--p", "0.97"])]
NOT_ALLOWED = "argument {}: not allowed with argument {}"
NO_WITNESS = "a witness name (W5/W7/W9) or --witness-file is required"

REFUSALS = {
    # test_command_error_messages: a refusal that no test below covers is one more row here.
    "command": {
        "spectrum-degeneracy-mismatch": refusal(
            "spectrum --n 4 --mode both", code=2,
            message="spectrum: numeric degeneracy structure deviates from the closed form"),
        "qudit-check-nmax-1": refusal("qudit-check --d 3 --nmax 1", "qudit-check: nmax must be >= 2, got 1"),
        "table1-out-empty": refusal('table1 --nmax 4 --out ""', "[Errno 2] No such file or directory: ''"),
    },
    "table1 --out": {"missing-dir": refusal(f"table1 --nmax 4 --out {FILE}/t.csv",
                                            f"[Errno 2] No such file or directory: '{FILE}/t.csv'")},
    "nmax": {n: refusal(f"table1 --nmax {n}", f"table1: nmax must lie in [4, 14], got {n}") for n in ("3", "15")},
    "spectrum --k": {"3": refusal("spectrum --n 5 --k 3", "Bipartition: need 1 <= k <= floor(n/2) = 2, got k=3")},
    "spectrum cap": {mode: refusal(f"spectrum --n 2000 --mode {mode}",
                                   "maxmixed_pt_blocks: bipartite dimension 1002001 exceeds cap 5000")
                     for mode in ("numeric", "both")},
    "scan p range": {"reversed": refusal("scan --n 5 --witness W5 --p-from 0.9 --p-to 0.2",
                                         "scan: need 0 <= p-from <= p-to <= 1, got [0.9, 0.2]")},
    "qudit-check --d": {"1": refusal("qudit-check --d 1", "Bipartition: local dimension must be >= 2, got 1")},
    "only flags": {" ".join(a + b): refusal(" ".join(["witness W5", *a, *b]), NOT_ALLOWED.format(b[0], a[0]))
                   for pair in ONLY_FLAGS for a, b in (pair, pair[::-1])},
    "unknown": {"W4": refusal("witness W4", "builtin_witness: unknown witness 'W4', expected one of W5, W7, W9")},
    "witness --n": {"7": refusal("witness W5 --n 7", "witness: witness dim 6 does not match n=7")},
    "no witness": {"bare": refusal("witness", NO_WITNESS)},
    **{f"{command} sources": {
        "name-first": refusal(f"{command} {name} {WF} {extra}", NOT_ALLOWED.format("--witness-file", label)),
        "file-first": refusal(f"{command} {WF} {name} {extra}", NOT_ALLOWED.format(label, "--witness-file")),
        "none": refusal(f"{command} {extra}", NO_WITNESS),
    } for command, name, label, extra in [("witness", "W5", "witness", "--validate --grid 5x3"),
                                          ("scan", "--witness W5", "--witness", "--p-from 1 --p-to 1")]},
    "unknown command": {"bare": refusal("no-such-command", "argument command: invalid choice: ...")},
    "required flag": {"spectrum": refusal("spectrum", "the following arguments are required: --n")},
    "grid spec": {"721": refusal("witness W5 --grid 721", "argument --grid: expects WxH (e.g. 721x360), got '721'")},
    "bad file": {f"{case}-{command}": refusal(f"{command} {WF}{extra}", message, content)
                 for case, (content, message) in BAD_WITNESS_FILES.items()
                 for command, extra in [("witness", ""), ("scan", " --p-from 0.5 --p-to 1")]},
    "threshold read": {case: refusal(READS["threshold"], BAD_WITNESS_FILES[case][1], BAD_WITNESS_FILES[case][0])
                       for case in ("empty", "nested-too-deep", "not-utf-8", "utf-16")},
    "non-finite": {f"{case}{extra}": refusal(
        f"witness {WF}{extra}", f"witness {data['name']}: product-state expectation leaves double range",
        json.dumps(data)) for case, data in NONFINITE_WITNESS_FILES.items() for extra in (" --validate", "")},
    "overflow": {f"{case}-{fmt}": refusal(f"{command} {WF}{FORMATS[fmt]}", message, json.dumps(data))
                 for case, (data, command, message) in OVERFLOW_COMMANDS.items() for fmt in FORMATS},
    "unprintable name": {f"{read}-{fmt}": refusal(
        command + FORMATS[fmt], READER + 'name must be printable, got "a\\nb"',
        json.dumps({"name": "a\nb", "diagonal": [1, -5, 1], "corner": 0}))
        for read, command in READS.items() for fmt in FORMATS},
    "name type": {f"{kind}-{read}-{fmt}": refusal(
        command + FORMATS[fmt], READER + f"name must be a JSON string, got {name}",
        f'{{"name": {name}, "diagonal": [1, -5, 1], "corner": 0}}')
        for kind, name in NAME_TYPES.items() for read, command in READS.items() for fmt in FORMATS},
}


def refuses(capsys, tmp_path, group, *cases):
    """Run the rows of REFUSALS[group] named by cases, or all of them: each exits with its code,
    prints nothing on stdout, and prints one stderr line that starts with its text."""
    for i, case in enumerate(cases or REFUSALS[group]):
        argv, content, code, err = REFUSALS[group][case]
        path = tmp_path / f"w{i}.json"
        if content is DIRECTORY:
            path.mkdir()
        elif content is not None:
            path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        got_code, out, got_err = run(capsys, [arg.replace(FILE, str(path)) for arg in argv])
        assert (got_code, out, got_err.count("\n"), got_err[-1:]) == (code, "", 1, "\n"), (group, case, got_err)
        assert got_err.startswith(err.replace(FILE, str(path))), (group, case, got_err)


def test_cli_imports_no_private_names():
    """cli calls only the public API of its sibling modules."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("symppt"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# perfbench/tracing.py wraps these module attributes; the module itself never calls them.
TRACER_ONLY_IMPORTS = {("ptrans", "dicke_decomposition"), ("ptrans", "dicke_labels")}


def test_modules_use_every_imported_name():
    """A library module imports only what it uses, apart from the tracer's bindings."""
    unused = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == TRACER_ONLY_IMPORTS
    assert TRACER_ONLY_IMPORTS <= {(module, name) for module, name, _ in load_script("perfbench/tracing.py").BINDINGS}


def test_only_combx_reads_the_print_limit():
    """One module decides whether a closed-form integer is short enough to print."""
    readers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        if "get_int_max_str_digits" in names:
            readers.add(path.stem)
    assert readers == {"combx"}


class TestTable1:
    def test_reference_rows(self, capsys):
        code, out, _ = run(capsys, ["table1", "--nmax", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p_min,p_min_float,p_ent_witness,p_ent_ref,p_ent_ref_status"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["6"][1] == "70/71"
        assert rows["6"][3] == "/"
        assert rows["8"][1] == "315/316"
        assert rows["9"][1] == "630/631"
        assert float(rows["9"][3]) == pytest.approx(0.99845, abs=1e-4)
        assert rows["9"][4] == "0.99849"
        assert rows["9"][5] == "not-reproduced"

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["table1", "--nmax", "12"])
        _, second, _ = run(capsys, ["table1", "--nmax", "12"])
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["table1", "--nmax", "5", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["rows"][1]["n"] == 5
        assert data["rows"][1]["p_min"] == "30/31"
        assert data["rows"][1]["p_ent_witness"] == pytest.approx(0.968624, abs=1e-5)

    def test_out_file_uses_lf(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run(capsys, ["table1", "--nmax", "4", "--out", str(path)])
        assert code == 0
        assert out == ""
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_unwritable_out_path(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "table1 --out")

    def test_range_validation(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "nmax")


class TestSpectrum:
    def test_analytic_five_two(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--n", "5", "--k", "2"])
        assert code == 0
        assert out.splitlines() == [
            "value,multiplicity",
            "1/60,6",
            "1/10,4",
            "1/4,2",
        ]

    def test_analytic_two_one(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--n", "2", "--k", "1", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [
            {"value": "1/6", "multiplicity": 3},
            {"value": "1/2", "multiplicity": 1},
        ]
        total = sum(Fraction(e["value"]) * e["multiplicity"] for e in data["entries"])
        assert total == 1

    def test_both_mode_within_tolerance(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--n", "5", "--k", "2", "--mode", "both"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "analytic_value,numeric_value,multiplicity,abs_deviation"
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 1e-10

    def test_numeric_mode(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--n", "4", "--k", "2", "--mode", "numeric"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [5, 3, 1]
        assert float(rows[0][0]) == pytest.approx(1 / 30, abs=1e-12)

    @pytest.mark.parametrize("mode", ["numeric", "both"])
    @pytest.mark.parametrize("n", range(30, 41))
    def test_closed_form_multiplicities_large_n(self, capsys, n, mode):
        code, out, err = run(capsys, ["spectrum", "--n", str(n), "--mode", mode])
        assert code == 0, err
        header, *rows = out.splitlines()
        col = header.split(",").index("multiplicity")
        mults = [int(row.split(",")[col]) for row in rows]
        assert mults == [n + 1 - 2 * j for j in range(n // 2 + 1)]

    def test_invalid_bipartition(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "spectrum --k")

    def test_numeric_spectrum_holds_one_real_matrix(self, capsys):
        # The dense float64 matrix is dim^2 * 8 bytes; its Hermitian check holds one
        # difference of it and, the matrix being exactly Hermitian, takes no |.| of it
        # (inexact real input takes it in place), so the check and the eigensolver's
        # copy each hold one more of it, never both at once.
        # The memo is cleared first, so the cut is really assembled and diagonalised.
        dim = Bipartition(60, 30).dim
        cli._once.cache_clear()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["spectrum", "--n", "60", "--mode", "numeric"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out.startswith("value,multiplicity\n")
        assert dim * dim * 8 <= peak < 2.5 * dim * dim * 8

    def test_largest_printable_denominator(self, capsys):
        # At the smallest digit limit, 640, n = 2120 is the largest balanced cut whose
        # j = 0 denominator (n+1) C(n, n/2) prints; its log10 bounds lie within
        # one digit of the limit, so the guard decides on the integer itself.
        denominators = [(n + 1) * math.comb(n, n // 2) for n in (2120, 2121)]
        assert denominators[0] < 10**640 <= denominators[1]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, ["spectrum", "--n", "2120"])
            assert (code, err) == (0, "")
            entries = maxmixed_pt_spectrum(Bipartition(2120, 1060)).entries
            assert out == "value,multiplicity\n" + "".join(f"{v},{m}\n" for v, m in entries)
            code, out, err = run(capsys, ["spectrum", "--n", "2121", "--format", "json"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (1, "")
        assert err == "symppt: error: spectrum: denominator (n+1) C(n, k) has more than 640 digits to print\n"

    def test_huge_n_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["spectrum", "--n", "1000000000"])
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err.startswith("symppt: error: spectrum: denominator (n+1) C(n, k) has more than ")
        assert len(err.splitlines()) == 1

    def test_huge_n_small_k_prints(self, capsys):
        code, out, err = run(capsys, ["spectrum", "--n", "1000000000", "--k", "1"])
        assert (code, err) == (0, "")
        assert out == "value,multiplicity\n1/1000000001000000000,1000000001\n1/1000000000,999999999\n"

    @pytest.mark.parametrize("mode", sorted(REFUSALS["spectrum cap"]))
    def test_dimension_cap(self, capsys, tmp_path, mode):
        refuses(capsys, tmp_path, "spectrum cap", mode)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_nan_deviation_is_a_violation(self, capsys, monkeypatch, level):
        # Wherever the nan falls, the builtin max would keep it (first) or drop it (later).
        numeric = cli._numeric_spectrum

        def nan_level(bip):
            entries = list(numeric(bip).entries)
            entries[level] = (math.nan, entries[level][1])
            return Spectrum(tuple(entries))

        monkeypatch.setattr(cli, "_numeric_spectrum", nan_level)
        code, out, err = run(capsys, ["spectrum", "--n", "4", "--mode", "both", "--format", "json"])
        assert code == 2
        assert math.isnan(json.loads(out)["max_abs_deviation"])
        assert err == "spectrum: max deviation nan exceeds 1e-10\n"

    @pytest.mark.parametrize("offset, code", [(0.5e-10, 0), (2e-10, 2)])
    def test_deviation_boundary(self, capsys, monkeypatch, offset, code):
        # Each numeric level is its closed form plus offset: half the 1e-10 bound passes, twice
        # it fails, so a bound 10x looser or tighter fails one of the pair.
        def shifted(bip):
            return Spectrum(tuple((float(v) + offset, m) for v, m in maxmixed_pt_spectrum(bip).entries))

        monkeypatch.setattr(cli, "_numeric_spectrum", shifted)
        got, out, err = run(capsys, ["spectrum", "--n", "5", "--k", "2", "--mode", "both"])
        assert got == code
        deviations = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert len(deviations) == 3 and all(abs(dev - offset) < 1e-16 for dev in deviations)
        if code:
            assert re.fullmatch(r"spectrum: max deviation \S+ exceeds 1e-10\n", err)
        else:
            assert err == ""


def counting(monkeypatch, name) -> list:
    """Wrap cli's binding of name; returns the list of the first argument of every call."""
    calls, func = [], getattr(cli, name)

    def wrapper(*args):
        calls.append(args[0])
        return func(*args)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


class TestMemo:
    """The numeric spectrum per cut and the product-state minimum per (witness, grid)
    are computed once per process: a warm command prints the bytes of a cold one."""

    def warm_equals_cold(self, capsys, argvs):
        cold = []
        for argv in argvs:
            cli._once.cache_clear()
            cold.append(run(capsys, argv))
        cli._once.cache_clear()
        warm = [[run(capsys, argv) for argv in argvs] for _ in range(2)]
        assert warm == [cold, cold]
        return cold

    def test_spectrum(self, capsys):
        cuts = [(4, 2), (4, 1), (9, 4), (9, 1), (30, 15), (30, 7), (35, 17), (40, 20), (40, 1)]
        argvs = [
            ["spectrum", "--n", str(n), "--k", str(k), "--mode", mode, "--format", fmt]
            for n, k in cuts for mode in ("numeric", "both") for fmt in ("csv", "json")
        ]
        cold = self.warm_equals_cold(capsys, argvs)
        assert {code for code, _, _ in cold} == {0}
        # Each cut prints its own spectrum: a memo keyed on n alone would repeat k's levels.
        assert len({out for _, out, _ in cold}) == len(argvs)

    def test_witness(self, capsys, tmp_path):
        files = []
        for name, corner in (("a", -9.0), ("b", -9.3)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": "custom", "diagonal": [0.03, -0.1, 1, 1, -0.1, 0.03],
                                        "corner": corner}))
            files.append(["--witness-file", str(path)])
        sources = [["W5"], ["W7"], ["W9"]] + files
        argvs = [
            ["witness", *source, *extra, "--format", fmt]
            for source in sources
            for extra in ([], ["--validate"], ["--validate", "--grid", "721x360"])
            for fmt in ("text", "json")
        ]
        cold = self.warm_equals_cold(capsys, argvs)
        assert {code for code, _, _ in cold} == {0}
        # Two files with one name but other coefficients validate to other minima.
        assert cold[-4][1] != cold[-10][1]

    def test_four_spectrum_commands_assemble_once(self, capsys, monkeypatch):
        calls = counting(monkeypatch, "maxmixed_pt")
        for mode in ("numeric", "both"):
            for fmt in ("csv", "json"):
                assert run(capsys, ["spectrum", "--n", "12", "--mode", mode, "--format", fmt])[0] == 0
        assert calls == [Bipartition(12, 6)]

    def test_analytic_spectrum(self, capsys):
        cuts = [(4, 2), (4, 1), (9, 4), (9, 1), (40, 20), (200, 100), (200, 3)]
        argvs = [
            ["spectrum", "--n", str(n), "--k", str(k), "--mode", "analytic", "--format", fmt]
            for n, k in cuts for fmt in ("csv", "json")
        ]
        argvs += [["spectrum", "--n", "9", "--k", "4", "--mode", "both", "--format", fmt] for fmt in ("csv", "json")]
        cold = self.warm_equals_cold(capsys, argvs)
        assert {code for code, _, _ in cold} == {0}
        assert len({out for _, out, _ in cold}) == len(argvs)

    def test_analytic_and_both_build_the_exact_levels_once(self, capsys, monkeypatch):
        calls = counting(monkeypatch, "maxmixed_pt_spectrum")
        for mode in ("analytic", "both"):
            for fmt in ("csv", "json"):
                assert run(capsys, ["spectrum", "--n", "12", "--mode", mode, "--format", fmt])[0] == 0
        assert calls == [Bipartition(12, 6)]

    def test_report_and_validate_minimize_once_per_grid(self, capsys, monkeypatch):
        calls = counting(monkeypatch, "minimize_over_products")
        for argv in (["W9"], ["W9", "--validate", "--grid", "721x360"], ["W9", "--validate"]):
            assert run(capsys, ["witness", *argv])[0] == 0
        assert len(calls) == 1
        assert run(capsys, ["witness", "W9", "--validate", "--grid", "1441x720"])[0] == 0
        assert len(calls) == 2

    def test_failures_are_not_cached(self, capsys, monkeypatch):
        calls = counting(monkeypatch, "maxmixed_pt")
        err = "symppt: error: maxmixed_pt_blocks: bipartite dimension 5041 exceeds cap 5000\n"
        for _ in range(2):
            assert run(capsys, ["spectrum", "--n", "140", "--mode", "numeric"]) == (1, "", err)
        assert calls == [Bipartition(140, 70)] * 2


class TestScan:
    def test_reference_rows(self, capsys):
        p_min = float(Fraction(30, 31))
        code, out, _ = run(
            capsys,
            ["scan", "--n", "5", "--witness", "W5", "--p-from", str(p_min), "--p-to", str(p_min), "--steps", "1"],
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "p,witness_expectation,lambda_min,sapt,witness_detects"
        cols = row.split(",")
        assert float(cols[1]) == pytest.approx(-0.0085, abs=5e-4)
        assert cols[3] == "true"
        assert cols[4] == "true"

    def test_beyond_witness_threshold(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "--n", "5", "--witness", "W5", "--p-from", "0.97", "--p-to", "0.97", "--steps", "1"],
        )
        assert code == 0
        cols = out.splitlines()[1].split(",")
        assert float(cols[1]) > 0
        assert cols[4] == "false"

    def test_npt_region(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "--n", "5", "--witness", "W5", "--p-from", "0.95", "--p-to", "0.95", "--steps", "1"],
        )
        assert code == 0
        cols = out.splitlines()[1].split(",")
        assert float(cols[2]) == pytest.approx(0.95 / 60 - 0.025, abs=1e-12)
        assert float(cols[2]) < 0
        assert cols[3] == "false"

    @pytest.mark.parametrize("name", ["W5", "W7", "W9"])
    def test_sapt_is_exact(self, capsys, name):
        # sapt is Fraction(p) >= p_min, exactly: at float(p_min), its two neighbours, and for W5
        # the float 5e-13 below p_min = 30/31 that a slack of 1e-12 used to call SAPPT.
        n = int(name[1:])
        p_min = sappt_threshold_qubits(n)
        nearest = float(p_min)
        ps = [math.nextafter(nearest, 0.0), nearest, math.nextafter(nearest, 1.0)]
        ps += [0.967741935483371] if name == "W5" else []
        for p in ps:
            code, out, _ = run(capsys, ["scan", "--witness", name, "--p-from", repr(p), "--p-to", repr(p),
                                        "--steps", "1"])
            assert code == 0
            assert out.splitlines()[1].split(",")[3] == str(Fraction(p) >= p_min).lower()

    def test_range_validation(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "scan p range")

    def test_witness_file(self, capsys, tmp_path):
        path = tmp_path / "w5.json"
        path.write_text(witness_to_json(builtin_witness("W5")), encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["scan", "--witness-file", str(path), "--p-from", "1", "--p-to", "1", "--steps", "1"],
        )
        assert code == 0
        cols = out.splitlines()[1].split(",")
        assert float(cols[2]) == pytest.approx(1 / 60, abs=1e-12)

    def test_steps_cap_checked_before_the_grid(self, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the p grid was allocated")

        monkeypatch.setattr(cli.np, "linspace", no_grid)
        argv = ["scan", "--witness", "W5", "--p-from", "0", "--p-to", "1", "--steps", "1000000000"]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err == f"symppt: error: scan: steps must be <= {cli.SCAN_STEPS_CAP}, got 1000000000\n"
        assert peak < 1 << 20


def scan_rows(argv):
    return cli.cmd_scan(cli.build_parser().parse_args(["scan"] + argv)).rows


def float_bits(rows):
    return [(struct.pack("<3d", *row[:3]), row[3:]) for row in rows]


class TestScanChunks:
    """The chunked scan against the per-p route of tests/oracles.py, bit for bit,
    on step counts around the chunk length B of each dimension."""

    @pytest.mark.parametrize("name, k", [("W9", 4), ("W7", 2), ("W5", 2), ("W5", 1)])
    def test_rows_equal_per_p_reference(self, name, k):
        w = builtin_witness(name)
        n = w.n
        chunk = cli._scan_chunk(Bipartition(n, k).dim)
        assert 1 < chunk < 201
        p_from = float(sappt_threshold_qubits(n)) - 0.03
        for steps in (1, chunk - 1, chunk, chunk + 1, 201):
            argv = ["--witness", name, "--k", str(k), "--p-from", repr(p_from), "--p-to", "1",
                    "--steps", str(steps)]
            got = scan_rows(argv)
            assert [tuple(map(type, row)) for row in got] == [(float,) * 3 + (bool,) * 2] * steps
            assert float_bits(got) == float_bits(scan_rows_per_p(w, n, k, p_from, 1.0, steps))

    def test_one_matrix_per_chunk_above_the_budget(self, tmp_path):
        # n = 17, k = 8: 90 x 90 complex matrices, each larger than the budget
        w = Witness("flat17", (1.0,) * 18, -0.5)
        path = tmp_path / "flat17.json"
        path.write_text(witness_to_json(w), encoding="utf-8")
        assert cli._scan_chunk(90) == 1
        got = scan_rows(["--witness-file", str(path), "--p-from", "0.5", "--p-to", "1", "--steps", "3"])
        assert float_bits(got) == float_bits(scan_rows_per_p(w, 17, 8, 0.5, 1.0, 3))

    def test_states_and_operators_chunked_by_their_own_dimension(self, monkeypatch):
        # W9 at k = 4: 10 x 10 states, 64 per stack; 30 x 30 operators, 7 per stack
        assert (cli._scan_chunk(10), cli._scan_chunk(30)) == (64, 7)
        stacks = {"states": [], "operators": []}
        density, operator = symstate.SymmetricDensityMatrix, cli.BipartiteOperator

        def record(name, make):
            # The operator chunks run on pool threads, in any order: each stack is recorded with
            # its first p's entry [1, 1], p times a positive entry of the uniform part (the GHZ
            # part is 0 there), and the sizes are read in p order.
            def wrapped(*args):
                if np.ndim(args[-1]) == 3:
                    stacks[name].append((args[-1][0, 1, 1].real, len(args[-1])))
                return make(*args)
            return wrapped

        monkeypatch.setattr(symstate, "SymmetricDensityMatrix", record("states", density))
        monkeypatch.setattr(cli, "BipartiteOperator", record("operators", operator))
        scan_rows(["--witness", "W9", "--k", "4", "--p-from", "0.99", "--p-to", "1", "--steps", "201"])
        sizes = {name: [size for _, size in sorted(recorded)] for name, recorded in stacks.items()}
        assert sizes == {"states": [64, 64, 64, 9], "operators": [7] * 28 + [5]}
        assert all(len({key for key, _ in recorded}) == len(recorded) for recorded in stacks.values())

    def test_operators_keep_the_arrays_they_are_given(self, monkeypatch):
        # maxmixed_pt's matrix, the embedded GHZ state, its partial transpose and every chunk
        # stack are new arrays, read-only from the start: no operator copies one.
        operator, built = symstate.BipartiteOperator, []

        def recording(bip, mat):
            built.append((mat, operator(bip, mat)))
            return built[-1][1]

        for module in (cli, ptrans, symstate):
            monkeypatch.setattr(module, "BipartiteOperator", recording)
        scan_rows(["--witness", "W9", "--k", "4", "--p-from", "0.99", "--p-to", "1", "--steps", "20"])
        assert len(built) == 3 + 3
        assert all(op.matrix is mat for mat, op in built)


class TestScanChecks:
    """The chunked scan keeps every per-step check: a matrix that fails one
    makes the command exit 1 (2 for an eigenpair) with that check's message."""

    ARGV = ["scan", "--witness", "W5", "--p-from", "0.9", "--p-to", "1", "--steps", "100"]

    def test_density_check(self, capsys, monkeypatch):
        density = symstate.SymmetricDensityMatrix

        def corrupt_middle(n, d, mats):
            if mats.ndim == 3:
                mats = mats.copy()
                mats[len(mats) // 2, 0, 1] += 1e-9
            return density(n, d, mats)

        monkeypatch.setattr(symstate, "SymmetricDensityMatrix", corrupt_middle)
        code, out, err = run(capsys, self.ARGV)
        assert (code, out) == (1, "")
        assert err == "symppt: error: SymmetricDensityMatrix: matrix is not Hermitian within 1e-12\n"

    def test_operator_check(self, capsys, monkeypatch):
        maxmixed_pt = cli.maxmixed_pt

        def off_by_1e11(bip):
            mat = maxmixed_pt(bip).matrix.copy()
            mat[0, 1] += 1e-11
            return SimpleNamespace(matrix=mat)

        monkeypatch.setattr(cli, "maxmixed_pt", off_by_1e11)
        code, out, err = run(capsys, self.ARGV)
        assert (code, out) == (1, "")
        assert err == "symppt: error: BipartiteOperator: matrix is not Hermitian within 1e-12\n"

    def test_nan_eigenvector_is_a_numerical_failure(self, capsys, monkeypatch):
        # nan > tol is false: a residual test written that way passed this pair and printed its nan.
        eigh = np.linalg.eigh

        def nan_vector(a, *args, **kwargs):
            w, v = eigh(a, *args, **kwargs)
            v = v.copy()
            v[..., 0] = np.nan
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", nan_vector)
        code, out, err = run(capsys, ["scan", "--witness", "W5", "--p-from", "0.9", "--p-to", "1", "--steps", "3"])
        assert (code, out) == (2, "")
        assert err == "symppt: numerical failure: min_eigenvalue: eigenpair residual nan exceeds 1e-10\n"


def usable_cores(monkeypatch, count: int):
    """scan's pool sees `count` usable cores, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestScanPool:
    """scan's operator chunks run on a pool of one thread per usable core: the bytes are the
    per-p oracle's at any pool size, and the first failing chunk in p order is reported."""

    # W5 at k = 2 over 100 steps: 12 x 12 operators in chunks of 44, 44 and 12.
    ARGV = ["scan", "--witness", "W5", "--p-from", "0.9", "--p-to", "1", "--steps", "100"]

    @staticmethod
    def chunk_of(op) -> int:
        """The index in p order of the chunk op's stack holds: its first matrix's entry [1, 1]
        is its first p times that of the uniform part, bit for bit (the GHZ part is 0 there)."""
        u11 = cli.maxmixed_pt(Bipartition(5, 2)).matrix[1, 1]
        firsts = [p * u11 for p in np.linspace(0.9, 1, 100)[::44]]
        return firsts.index(op.matrix[0, 1, 1].real)

    def test_first_failing_chunk_in_p_order_is_reported(self, capsys, monkeypatch):
        # The second chunk fails only after the third has: its error is still the one reported.
        usable_cores(monkeypatch, 4)
        min_eig, third_failed = cli.min_eigenvalue, threading.Event()

        def failing(op):
            chunk = self.chunk_of(op)
            if chunk == 2:
                third_failed.set()
                raise RuntimeError("third chunk")
            if chunk == 1:
                assert third_failed.wait(timeout=30)
                raise RuntimeError("second chunk")
            return min_eig(op)

        monkeypatch.setattr(cli, "min_eigenvalue", failing)
        code, out, err = run(capsys, self.ARGV)
        assert (code, out, err) == (2, "", "symppt: numerical failure: second chunk\n")
        assert third_failed.is_set()

    @pytest.mark.parametrize("cores", [1, 4])
    def test_last_chunk_failing_is_the_serial_failure(self, capsys, monkeypatch, cores):
        # The chunks in p order, one at a time, stop at the last with its error: so does the pool.
        usable_cores(monkeypatch, cores)
        min_eig, chunks, threads = cli.min_eigenvalue, [], set()

        def failing_last(op):
            chunk = self.chunk_of(op)
            chunks.append(chunk)
            threads.add(threading.current_thread())
            if chunk == 2:
                raise RuntimeError("min_eigenvalue: eigenpair residual 1e-09 exceeds 1e-10")
            return min_eig(op)

        monkeypatch.setattr(cli, "min_eigenvalue", failing_last)
        code, out, err = run(capsys, self.ARGV)
        assert (code, out) == (2, "")
        assert err == "symppt: numerical failure: min_eigenvalue: eigenpair residual 1e-09 exceeds 1e-10\n"
        assert sorted(chunks) == [0, 1, 2]
        assert threading.main_thread() not in threads
        assert len(threads) <= cores and (cores > 1 or len(threads) == 1)

    @pytest.mark.parametrize("cores", [1, 4])
    @pytest.mark.parametrize("name, k", [("W9", 4), ("W5", 1)])
    def test_bytes_equal_per_p_oracle_at_any_pool_size(self, capsys, monkeypatch, cores, name, k):
        usable_cores(monkeypatch, cores)
        w = builtin_witness(name)
        p_from = float(sappt_threshold_qubits(w.n)) - 0.03
        oracle = scan_rows_per_p(w, w.n, k, p_from, 1.0, 201)
        columns = ("p", "witness_expectation", "lambda_min", "sapt", "witness_detects")
        table = cli.Table({"n": w.n, "k": k, "witness": name}, "rows", columns, oracle)
        for fmt in ("csv", "json"):
            argv = ["scan", "--witness", name, "--k", str(k), "--p-from", repr(p_from), "--p-to", "1",
                    "--steps", "201", "--format", fmt]
            assert run(capsys, argv) == (0, render_reference(table, fmt), "")


def stub_qudit_min_eig_check(monkeypatch) -> list:
    """Replace qudit-check's eigensolve by the constant (0.5, 1/2); returns the
    list that collects the (n, k) of every call."""
    calls = []

    def stub(n, d, k):
        calls.append((n, k))
        return 0.5, Fraction(1, 2)

    monkeypatch.setattr(cli, "qudit_min_eig_check", stub)
    return calls


class TestQuditCheck:
    def test_qutrits(self, capsys):
        code, out, _ = run(capsys, ["qudit-check", "--d", "3", "--nmax", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,dim,min_eig,conjectured,abs_delta"
        rows = {(r[0], r[1]): r for r in (line.split(",") for line in lines[1:])}
        assert rows[("4", "2")][4] == "1/90"
        assert all(float(r[5]) <= 1e-8 for r in rows.values())

    def test_qubit_reduction(self, capsys):
        code, out, _ = run(capsys, ["qudit-check", "--d", "2", "--nmax", "6", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        by_key = {(r["n"], r["k"]): r for r in data["rows"]}
        assert by_key[(6, 3)]["conjectured"] == "1/140"
        assert data["max_abs_delta"] <= 1e-8

    def test_argument_validation(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "qudit-check --d")

    @pytest.mark.parametrize("cut", [(2, 1), (3, 1), (4, 2)], ids=lambda cut: f"n{cut[0]}-k{cut[1]}")
    def test_nan_minimum_is_a_violation(self, capsys, monkeypatch, cut):
        check = cli.qudit_min_eig_check

        def nan_at_cut(n, d, k):
            return (math.nan, check(n, d, k)[1]) if (n, k) == cut else check(n, d, k)

        monkeypatch.setattr(cli, "qudit_min_eig_check", nan_at_cut)
        code, out, err = run(capsys, ["qudit-check", "--d", "2", "--nmax", "4"])
        assert code == 2
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [row[3] for row in rows if (int(row[0]), int(row[1])) == cut] == ["nan"]
        assert err == ("qudit-check: max |delta| / (1e-09 * conjectured + eigensolver rounding) nan exceeds 1.0\n")

    def test_reports_skipped_cuts(self, capsys):
        code, out, err = run(capsys, ["qudit-check", "--d", "30", "--nmax", "3"])
        assert code == 0
        assert [line.split(",")[:3] for line in out.splitlines()[1:]] == [["2", "1", "900"]]
        assert err == "qudit-check: skipped 1 of 2 cuts: bipartite dimension above 5000\n"

    @pytest.mark.parametrize("nmax", [15, 18, 19, 57, 58, 200])
    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_cuts_match_brute_force_enumeration(self, capsys, monkeypatch, d, nmax):
        calls = stub_qudit_min_eig_check(monkeypatch)
        code, out, err = run(capsys, ["qudit-check", "--d", str(d), "--nmax", str(nmax)])
        dims = {
            (n, k): math.comb(k + d - 1, d - 1) * math.comb(n - k + d - 1, d - 1)
            for n in range(2, nmax + 1)
            for k in range(1, n // 2 + 1)
        }
        kept = [cut for cut, dim in dims.items() if dim <= cli.DIM_CAP]
        assert code == 0
        assert calls == kept
        assert out == "".join(
            ["n,k,dim,min_eig,conjectured,abs_delta\n"]
            + [f"{n},{k},{dims[n, k]},0.5,1/2,0\n" for n, k in kept]
        )
        skipped = len(dims) - len(kept)
        assert err == (
            f"qudit-check: skipped {skipped} of {len(dims)} cuts: bipartite dimension above 5000\n"
            if skipped
            else ""
        )

    def test_huge_nmax_stops_at_the_cap(self, capsys):
        # d = 4: the k = 1 cut leaves the cap at n = 19, so --nmax 19 runs every
        # cut a larger nmax can run.
        start = time.perf_counter()
        code, out, err = run(capsys, ["qudit-check", "--d", "4", "--nmax", "1000000"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 20
        rows = out.count("\n") - 1
        assert err == (
            f"qudit-check: skipped {250_000_000_000 - rows} of 250000000000 cuts: "
            "bipartite dimension above 5000\n"
        )
        assert run(capsys, ["qudit-check", "--d", "4", "--nmax", "19"])[1] == out

    def test_huge_qubit_nmax_enumerates_only_cuts_under_the_cap(self, capsys, monkeypatch):
        # Qubit cuts stay under the cap up to n = 2500 (k = 1), with ever fewer k
        # per n; a k loop that ran to n/2 would build 1.5 million cuts.
        calls = stub_qudit_min_eig_check(monkeypatch)
        start = time.perf_counter()
        code, _, err = run(capsys, ["qudit-check", "--d", "2", "--nmax", "1000000"])
        assert time.perf_counter() - start < 5
        assert code == 0
        under_cap = [
            (n, k)
            for n in range(2, 2501)
            for k in range(1, n // 2 + 1)
            if (k + 1) * (n - k + 1) <= cli.DIM_CAP
        ]
        assert calls == under_cap
        assert err == (
            f"qudit-check: skipped {250_000_000_000 - len(calls)} of 250000000000 cuts: "
            "bipartite dimension above 5000\n"
        )

    @pytest.mark.parametrize("rel_error,expected_code", [(5e-10, 0), (2e-9, 2)])
    def test_relative_tolerance(self, capsys, monkeypatch, rel_error, expected_code):
        # A relative error of 2e-9 stays below 1e-8 in absolute terms on
        # every cut, so only a bound relative to the conjectured value sees it.
        def perturbed(n, d, k):
            conjectured = Fraction(1, math.comb(n + d - 1, d - 1) * math.comb(n, k))
            return float(conjectured) * (1 + rel_error), conjectured

        monkeypatch.setattr(cli, "qudit_min_eig_check", perturbed)
        code, _, err = run(capsys, ["qudit-check", "--d", "3", "--nmax", "8"])
        assert code == expected_code, err

    def test_bad_eigenpair_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", tilted_eigh)
        code, out, err = run(capsys, ["qudit-check", "--d", "3", "--nmax", "6"])
        assert (code, out) == (2, "")
        assert err == "symppt: numerical failure: qudit_min_eig_check: eigenpair residual 2.5e-07 exceeds 1e-10\n"

    def test_nan_eigenvector_exits_2(self, capsys, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.full_like(eigh(a)[1], np.nan)))
        code, out, err = run(capsys, ["qudit-check", "--d", "3", "--nmax", "6"])
        assert (code, out) == (2, "")
        assert err == "symppt: numerical failure: qudit_min_eig_check: eigenpair residual nan exceeds 1e-10\n"

    def test_eigensolver_rounding_allowed(self, capsys):
        # At n = 60 the minimum eigenvalue is about 1e-19, so 1e-9 of it is
        # far below the ~1e-17 eigvalsh leaves on blocks of norm ~0.1.
        code, _, err = run(capsys, ["qudit-check", "--d", "2", "--nmax", "60"])
        assert code == 0, err
        assert err == ""


class TestWitnessCommand:
    def test_expectation_and_verdict(self, capsys):
        code, out, _ = run(capsys, ["witness", "W5", "--n", "5", "--p", "0.96774"])
        assert code == 0
        assert "verdict: entangled (witness)" in out
        val = float(out.split("expectation(p=0.96774): ")[1].splitlines()[0])
        assert val == pytest.approx(-0.0085, abs=5e-4)

    def test_threshold_only(self, capsys):
        code, out, _ = run(capsys, ["witness", "W5", "--threshold"])
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.96862, abs=1e-4)

    def test_validate_only(self, capsys):
        code, out, _ = run(capsys, ["witness", "W9", "--validate"])
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["min"]) == pytest.approx(0.0002234, abs=5e-5)
        assert float(fields["theta"]) == pytest.approx(0.381, abs=1e-3)

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, ["witness", "W7", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["p_min"] == "140/141"
        assert data["detection_threshold"] == pytest.approx(0.99302, abs=1e-4)
        assert data["product_min"] == pytest.approx(0.001975, abs=1e-4)
        assert data["product_argmin"]["theta"] == pytest.approx(0.0, abs=1e-3)
        assert data["certified_interval"][0] < data["certified_interval"][1]

    @pytest.mark.parametrize("first, second", ONLY_FLAGS)
    def test_only_flags_are_exclusive(self, capsys, tmp_path, first, second):
        refuses(capsys, tmp_path, "only flags", " ".join(first + second), " ".join(second + first))

    def test_unknown_witness(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "unknown")

    def test_dimension_mismatch(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "witness --n")

    def test_missing_witness(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "no witness")

    @pytest.mark.parametrize("command", ["witness", "scan"])
    def test_one_witness_source(self, capsys, tmp_path, command):
        refuses(capsys, tmp_path, f"{command} sources")


# The report for a witness file: a negative product-state minimum (invalid) and a
# positive definite W (detects nothing) each print p* > p_min but certify nothing.
INVALID_REPORT = """\
witness: invalid
dim: 6
n: 5
p_min: 30/31 (0.967741935484)
detection_threshold: 1.03448275862
product_min: -1 at theta=4.96730805043e-09, phi=0
"""
FLAT_REPORT = """\
witness: flat
dim: 6
n: 5
p_min: 30/31 (0.967741935484)
detection_threshold: 3
product_min: 0.96875 at theta=1.57079632679, phi=0.628318530718
"""


class TestWitnessCertification:
    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, diagonal, corner in [("invalid", [-1, 0, 0, 0, 0, -1], -9), ("flat", [1] * 6, 0.5)]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps({"name": name, "diagonal": diagonal, "corner": corner}))
        return paths

    def test_invalid_witness_exits_2_without_interval(self, capsys, files):
        violation = "witness invalid: product-state minimum -1 < 0, not a valid witness\n"
        code, out, err = run(capsys, ["witness", "--witness-file", str(files["invalid"])])
        assert (code, out, err) == (2, INVALID_REPORT, violation)
        code, out, err = run(capsys, ["witness", "--witness-file", str(files["invalid"]), "--format", "json"])
        assert (code, err) == (2, violation)
        data = json.loads(out)
        assert data["certified_interval"] is None
        assert data["detection_threshold"] == pytest.approx(30 / 29)
        code, out, err = run(capsys, ["witness", "--witness-file", str(files["invalid"]), "--validate"])
        assert (code, out, err) == (2, "min=-1 theta=4.96730805043e-09 phi=0\n", violation)

    def test_witness_that_detects_nothing_certifies_nothing(self, capsys, files):
        code, out, err = run(capsys, ["witness", "--witness-file", str(files["flat"])])
        assert (code, out, err) == (0, FLAT_REPORT, "")
        code, out, _ = run(capsys, ["witness", "--witness-file", str(files["flat"]), "--format", "json"])
        assert (code, json.loads(out)["certified_interval"]) == (0, None)

    def test_threshold_alone_claims_nothing(self, capsys, files):
        code, out, err = run(capsys, ["witness", "--witness-file", str(files["invalid"]), "--threshold"])
        assert (code, out, err) == (0, "1.03448275862\n", "")

    def test_threshold_does_not_depend_on_scale(self, capsys, tmp_path):
        """p* = g / (g - t) is the same for every multiple of W, so a small W is not degenerate."""
        w = builtin_witness("W5")

        def lines(scale):
            path = tmp_path / f"w5x{scale}.json"
            path.write_text(json.dumps({"name": "W5", "diagonal": [scale * c for c in w.diagonal],
                                        "corner": scale * w.corner}))
            code, out, err = run(capsys, ["witness", "--witness-file", str(path)])
            assert (code, err) == (0, ""), scale
            return [line for line in out.splitlines() if line.startswith(("detection", "certified"))]

        expected = lines(1)
        assert len(expected) == 2
        for scale in (1e-13, 1e-6, 1e6):
            assert lines(scale) == expected, scale
        err = "symppt: error: detection_threshold: degenerate denominator, expectation constant in p\n"
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"diagonal": [1, 1, 1, 1, 1, 1], "corner": 0}))
        assert run(capsys, ["witness", "--witness-file", str(flat)]) == (1, "", err)
        # g - t is a rounding error of 1e300, not a slope: constant in p relative to W's scale.
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(NONFINITE_WITNESS_FILES["1e300"]))
        assert run(capsys, ["witness", "--witness-file", str(huge), "--threshold"]) == (1, "", err)

    @pytest.mark.parametrize("k", [-13, -6, 0, 6, 13])
    def test_validation_does_not_depend_on_scale(self, capsys, tmp_path, k):
        """The grid-agreement bound scales with W: W5 x 10^k validates and certifies as W5 does."""
        w = builtin_witness("W5")
        path = tmp_path / "w5.json"
        path.write_text(json.dumps({"name": "W5", "diagonal": [c * 10.0**k for c in w.diagonal],
                                    "corner": w.corner * 10.0**k}))
        code, out, err = run(capsys, ["witness", "--witness-file", str(path)])
        assert (code, err) == (0, "")
        expected = run(capsys, ["witness", "W5"])[1].splitlines()
        for prefix in ("detection_threshold: ", "certified_entangled_sappt_interval: "):
            assert [line for line in out.splitlines() if line.startswith(prefix)] == [
                line for line in expected if line.startswith(prefix)
            ]

    @pytest.mark.parametrize("name", ["W5", "W7", "W9"])
    def test_builtin_witnesses_certify(self, capsys, name):
        code, out, err = run(capsys, ["witness", name, "--format", "json"])
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["product_min"] > 0
        assert data["certified_interval"] == [data["p_min_float"], data["detection_threshold"]]


class TestWitnessGridCap:
    @pytest.mark.parametrize("grid", ["1000000000000x4", "4x1000000000000"])
    def test_cap_checked_before_the_grid(self, capsys, monkeypatch, grid):
        def no_grid(*args, **kwargs):
            raise AssertionError("the validation grid was allocated")

        monkeypatch.setattr(witness.np, "linspace", no_grid)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["witness", "W5", "--validate", "--grid", grid])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        size = tuple(map(int, grid.split("x")))
        assert err == (
            f"symppt: error: minimize_over_products: grid {size} exceeds {witness.GRID_SIDE_CAP} per side\n"
        )
        assert peak < 1 << 20


class TestNonFiniteWitnessFiles:
    @pytest.mark.parametrize("extra", [["--validate"], []])
    @pytest.mark.parametrize("case", sorted(NONFINITE_WITNESS_FILES))
    def test_exits_1_with_one_error_line(self, capsys, tmp_path, case, extra):
        refuses(capsys, tmp_path, "non-finite", " ".join([case, *extra]))


@pytest.mark.parametrize("case", sorted(REFUSALS["overflow"]))
def test_overflowing_witness_exits_1_with_one_error_line(capsys, tmp_path, case):
    refuses(capsys, tmp_path, "overflow", case)


@pytest.mark.parametrize("case", sorted(REFUSALS["unprintable name"]))
def test_unprintable_witness_name_exits_1_with_one_error_line(capsys, tmp_path, case):
    refuses(capsys, tmp_path, "unprintable name", case)


@pytest.mark.parametrize("case", sorted(REFUSALS["name type"]))
def test_witness_name_of_another_json_type_exits_1_with_one_error_line(capsys, tmp_path, case):
    refuses(capsys, tmp_path, "name type", case)


class TestWitnessFileErrors:
    @pytest.mark.parametrize("case", sorted(REFUSALS["bad file"]))
    def test_exits_1_with_one_error_line(self, capsys, tmp_path, case):
        refuses(capsys, tmp_path, "bad file", case)


def test_json_syntax_error_names_the_reader(capsys, tmp_path):
    refuses(capsys, tmp_path, "threshold read", "empty")


@pytest.mark.parametrize("case", ["nested-too-deep", "not-utf-8", "utf-16"])
def test_unreadable_witness_file_names_the_reader(capsys, tmp_path, case):
    refuses(capsys, tmp_path, "threshold read", case)


class TestParsing:
    def test_unknown_command(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "unknown command")

    def test_missing_required_flag(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "required flag")

    def test_bad_grid_spec(self, capsys, tmp_path):
        refuses(capsys, tmp_path, "grid spec")

    @pytest.mark.parametrize(
        "valid,malformed",
        [
            (["spectrum", "--n", "6", "--mode", "both"], ["spectrum", "--n", "6", "--k", "x"]),
            (["witness", "W5", "--grid", "12x6", "--format", "json"], ["witness", "W5", "--grid", "12"]),
            (["qudit-check", "--d", "3", "--nmax", "4"], ["qudit-check", "--nmax", "4"]),
        ],
    )
    def test_parser_reused_after_malformed_argv(self, capsys, valid, malformed):
        assert cli.build_parser() is cli.build_parser()
        first = run(capsys, valid)
        code, out, err = run(capsys, malformed)
        assert (code, out, len(err.splitlines())) == (1, "", 1)
        assert run(capsys, valid) == first


# A bounded argv grammar: each subcommand with its required flags and a
# random subset of the others.  Per flag: (valid values, malformed values);
# None is a bare switch and "" the positional witness name.  At most one
# flag per example takes a malformed value (nan, inf, non-numbers,
# negatives, bad choices), or one unknown flag is added.  Grids stay small,
# so no example runs the default 721x360 product-state search.
COUNT = ["-3", "0", "x", "nan", "inf", "2.5"]
GRAMMAR = {
    "table1": {"--nmax": (["4", "6", "14"], ["3", "15", "-1", "x", "nan"])},
    "spectrum": {
        "--n": (["2", "5", "9"], COUNT),
        "--k": (["1", "2", "4"], COUNT + ["9"]),
        "--mode": (["analytic", "numeric", "both"], ["exact"]),
    },
    "scan": {
        "--witness": (["W5", "W7", "W9"], ["W4", "x"]),
        "--p-from": (["0", "0.5", "0.97"], ["-0.1", "nan", "inf", "x"]),
        "--p-to": (["0.97", "1"], ["1.5", "-inf", "nan", "x"]),
        "--n": (["5", "7", "9"], COUNT),
        "--k": (["1", "2"], COUNT + ["9"]),
        "--steps": (["1", "5"], ["0", "-2", "x", "nan", "100001"]),
    },
    "qudit-check": {
        "--d": (["2", "3", "4"], ["1", "-1", "x", "nan"]),
        "--nmax": (["2", "4", "6"], ["-1", "1", "x", "inf"]),
    },
    "witness": {
        "": (["W5", "W7", "W9"], ["W4", "x"]),
        "--grid": (["5x3", "12x6"], ["0x0", "-2x4", "3", "x", "nanxnan"]),
        "--n": (["5", "7", "9"], COUNT),
        "--p": (["0.5", "0.97", "1"], ["-0.1", "1.5", "nan", "inf", "x"]),
        "--validate": ([None], [None]),
        "--threshold": ([None], [None]),
    },
}
# The first REQUIRED[command] flags are always given.  For qudit-check that
# includes --nmax, since the default of 15 takes about a second at d = 4.
REQUIRED = {"table1": 0, "spectrum": 1, "scan": 3, "qudit-check": 2, "witness": 2}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    options = dict(GRAMMAR[command], **{"--format": (["csv", "json", "text"], ["xml"])})
    required = list(options)[: REQUIRED[command]]
    optional = sorted(set(options) - set(required))
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True))
    bad = draw(st.sampled_from([None, "--bogus"] + flags))
    argv = [command] + (["--bogus", "1"] if bad == "--bogus" else [])
    for flag in flags:
        value = draw(st.sampled_from(options[flag][flag == bad]))
        argv += [v for v in (flag, value) if v]
    return argv


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# Tokens the differential parse test inserts into argvs() examples: help and its
# abbreviation, the end-of-options marker, the --flag=value form, an abbreviated
# --format, flags no parser knows and a word no command is named.
PARSE_TOKENS = [["-h"], ["--he"], ["--"], ["--n=5"], ["--form", "json"], ["--bogus"], ["-x", "1"], ["nope"]]


@st.composite
def parse_argvs(draw):
    argv = draw(argvs())
    argv = argv[: draw(st.integers(0, len(argv)))] if draw(st.booleans()) else argv
    for tokens in draw(st.lists(st.sampled_from(PARSE_TOKENS), max_size=2)):
        i = draw(st.integers(0, len(argv)))
        argv[i:i] = tokens
    return argv


def parse_outcome(parse, argv):
    """The Namespace, the ValueError message, or the SystemExit code and stdout of parse(argv)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(list(argv)))
    except ValueError as exc:
        return "ValueError", str(exc)
    except SystemExit as exc:
        return "SystemExit", exc.code, out.getvalue()


class TestParseOnce:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(argv=parse_argvs())
    def test_same_outcome_as_the_top_level_parser(self, argv):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli.build_parser().parse_args, argv)

    def test_a_command_is_parsed_by_its_subparser_alone(self, capsys, monkeypatch):
        parsers, parse_known_args = [], cli._Parser.parse_known_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_known_args", recording)
        top = cli.build_parser()
        assert run(capsys, ["table1", "--nmax", "4"])[0] == 0
        assert top not in parsers
        assert parsers == [top._commands["table1"]]
        parsers.clear()
        for argv in ([], ["no-such-command"], ["-h"]):
            with contextlib.suppress(SystemExit):
                run(capsys, argv)
            assert parsers[0] is top
            parsers.clear()


class TestCliProperties:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(argv=argvs())
    def test_exit_codes_and_determinism(self, argv):
        code, out, err = run_quiet(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert len(err.splitlines()) == 1, (argv, err)
        assert run_quiet(argv) == (code, out, err), argv


@pytest.mark.parametrize("case", sorted(REFUSALS["command"]))
def test_command_error_messages(capsys, monkeypatch, tmp_path, case):
    if case == "spectrum-degeneracy-mismatch":
        # One level of full multiplicity: no closed-form spectrum with k >= 1 has that structure.
        monkeypatch.setattr(cli, "_numeric_spectrum", lambda bip: Spectrum(((0.0, bip.dim),)))
    refuses(capsys, tmp_path, "command", case)
