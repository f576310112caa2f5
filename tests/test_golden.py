"""Frozen CLI outputs: every README example, in every format, byte for byte.

``golden/cases.json`` maps a case name to its argv and exit code; the
expected stdout is ``golden/<name>.out``.  Columns that only carry
rounding noise (deviations from the closed forms, and scan ``lambda_min``
where it is zero) are compared numerically to 1e-12; every other byte must
match exactly.

The goldens were captured from the CLI before its renderer was unified,
with

    PYTHONPATH=<checkout>/src python tests/test_golden.py --capture
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from symppt.cli import main

GOLDEN = Path(__file__).with_name("golden")
NOISE_TOL = 1e-12
NOISE_COLUMNS = {"abs_deviation", "max_abs_deviation", "abs_delta", "max_abs_delta"}
JSON_LINE = re.compile(r'^(\s*"(\w+)": )(.*?)(,?)$')


def load_cases() -> dict:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def argv_of(case: dict) -> list:
    return [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]


def _noisy(column: str, want: str) -> bool:
    return column in NOISE_COLUMNS or (column == "lambda_min" and abs(float(want)) <= NOISE_TOL)


def _same_cell(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    return _noisy(column, want) and abs(float(got) - float(want)) <= NOISE_TOL


def assert_matches(got: str, want: str) -> None:
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), "line count differs"
    csv_columns = want_lines[0].split(",")
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g == w:
            continue
        mg, mw = JSON_LINE.match(g), JSON_LINE.match(w)
        if mg and mw and mg.group(1, 4) == mw.group(1, 4):
            assert _same_cell(mw[2], mg[3], mw[3]), f"line {lineno}: {g!r} != {w!r}"
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells) == len(csv_columns), f"line {lineno}: {g!r} != {w!r}"
        for column, gc, wc in zip(csv_columns, g_cells, w_cells):
            assert _same_cell(column, gc, wc), f"line {lineno}, {column}: {gc!r} != {wc!r}"


@pytest.mark.parametrize("name", sorted(load_cases()))
def test_golden(name, capsys):
    case = load_cases()[name]
    code = main(argv_of(case))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert_matches(out, (GOLDEN / f"{name}.out").read_text(encoding="utf-8"))


def test_comparison_is_strict_outside_noise_columns():
    assert_matches("a,abs_delta\n1,2e-17\n", "a,abs_delta\n1,3e-17\n")
    assert_matches('  "max_abs_deviation": 1e-17\n', '  "max_abs_deviation": 0.0\n')
    for got, want in (
        ("a,abs_delta\n2,2e-17\n", "a,abs_delta\n1,2e-17\n"),
        ("a,abs_delta\n1,2e-10\n", "a,abs_delta\n1,2e-17\n"),
        ('  "min_eig": 1e-17\n', '  "min_eig": 0.0\n'),
        ('  "lambda_min": 0.5\n', '  "lambda_min": 0.5000000001\n'),
    ):
        with pytest.raises(AssertionError):
            assert_matches(got, want)


def capture() -> None:
    cases = load_cases()
    for name, case in cases.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            case["exit"] = main(argv_of(case))
        (GOLDEN / f"{name}.out").write_text(buf.getvalue(), encoding="utf-8", newline="\n")
    text = json.dumps(cases, indent=1) + "\n"
    (GOLDEN / "cases.json").write_text(text, encoding="utf-8", newline="\n")


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    capture()
