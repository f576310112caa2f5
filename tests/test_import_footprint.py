"""The exact commands run without numpy: each case is a fresh interpreter.

`import symppt.cli` loads neither numpy nor the numeric modules, and neither do
`table1`, `spectrum --mode analytic` and `witness --threshold`.  The first
numeric command loads them all and binds their names into `cli`, keeping a
name that was patched before it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
NUMERIC = ["numpy", "symppt.ptrans", "symppt.symstate", "symppt.witness"]

# Runs setup, then each argv with stdout swallowed, and prints the exit codes, the
# NUMERIC modules loaded and the value of result.
SCRIPT = """
import contextlib, io, json, sys
import symppt.cli as cli
{setup}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {argvs!r}]
print(json.dumps([codes, [m for m in {numeric!r} if m in sys.modules], {result}]))
"""


def fresh(argvs, setup="", result="None") -> list:
    """[exit codes, loaded NUMERIC modules, result] of a fresh interpreter that ran argvs."""
    code = SCRIPT.format(setup=setup, argvs=argvs, numeric=NUMERIC, result=result)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    return json.loads(proc.stdout)


def test_import_loads_no_numeric_module():
    assert fresh([]) == [[], [], None]


def test_exact_commands_load_no_numeric_module(tmp_path):
    path = tmp_path / "w9.json"
    path.write_text(json.dumps({"name": "w9", "diagonal": [1, -0.1] + [0.5] * 6 + [-0.1, 1], "corner": -9}))
    argvs = [
        ["table1"],
        ["table1", "--nmax", "14", "--format", "json"],
        ["spectrum", "--n", "9", "--mode", "analytic"],
        ["spectrum", "--n", "40", "--k", "7", "--format", "json"],
        ["witness", "W9", "--threshold"],
        ["witness", "--witness-file", str(path), "--threshold", "--format", "json"],
    ]
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'symppt')"
    assert fresh(argvs, result=loaded) == [[0] * len(argvs), [], ["symppt", "symppt.cli", "symppt.combx"]]


# Each command runs first in its interpreter, before `cli` holds any numeric name, so a
# _numeric() call moved below the first numeric name its command reads fails here.
@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "6", "--mode", "numeric"],
    ["spectrum", "--n", "6", "--mode", "both"],
    ["scan", "--witness", "W5", "--p-from", "0.97", "--p-to", "1", "--steps", "3"],
    ["qudit-check", "--d", "3", "--nmax", "4"],
    ["witness", "W5"],
    ["witness", "W5", "--validate"],
    ["witness", "W5", "--p", "0.97"],
], ids=["spectrum-numeric", "spectrum-both", "scan", "qudit-check", "witness-report", "witness-validate",
        "witness-p"])
def test_numeric_command_loads_them_all(argv):
    assert fresh([argv]) == [[0], NUMERIC, None]


def test_patch_before_the_first_numeric_command_sees_the_call():
    setup = """
calls = []
def counted(bip):
    from symppt.ptrans import maxmixed_pt
    calls.append(bip)
    return maxmixed_pt(bip)
cli.maxmixed_pt = counted
"""
    argvs = [["spectrum", "--n", "6", "--mode", "numeric"], ["spectrum", "--n", "7", "--mode", "both"]]
    assert fresh(argvs, setup, "[str(bip) for bip in calls]") == [
        [0, 0], NUMERIC, ["Bipartition(n=6, k=3, d=2)", "Bipartition(n=7, k=3, d=2)"]
    ]
