"""The exact commands run without numpy: each case is a fresh interpreter.

`import symppt.cli` loads neither numpy nor the numeric modules, and neither do
`table1`, `spectrum --mode analytic` and `witness --threshold`.  The first
numeric command loads them all and binds their names into `cli`, keeping a
name that was patched before it.  Where numpy cannot be imported, a numeric
command exits 1 with one line.  `scan` loads `concurrent.futures` for its
thread pool; the import and the exact commands do not.
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


# combx.__all__: the exact combinatorics, and the types and readers the exact commands run on.
EXACT_NAMES = sorted([
    "SqrtRational", "binomial", "dicke_split_coefficient", "multinomial", "sappt_threshold_qubits",
    "sappt_threshold_qudits", "symmetric_dimension", "Bipartition", "Spectrum", "maxmixed_pt_spectrum",
    "Witness", "builtin_witness", "detection_threshold", "load_witness_file", "witness_from_json",
    "witness_to_json",
])


def test_exact_names_load_no_numeric_module():
    setup = f"import symppt\nfor name in {EXACT_NAMES!r}:\n    getattr(symppt, name)"
    assert fresh([], setup, "sorted(symppt.combx.__all__)") == [[], [], EXACT_NAMES]


def exact_argvs(tmp_path) -> list:
    path = tmp_path / "w9.json"
    path.write_text(json.dumps({"name": "w9", "diagonal": [1, -0.1] + [0.5] * 6 + [-0.1, 1], "corner": -9}))
    return [
        ["table1"],
        ["table1", "--nmax", "14", "--format", "json"],
        ["spectrum", "--n", "9", "--mode", "analytic"],
        ["spectrum", "--n", "40", "--k", "7", "--format", "json"],
        ["witness", "W9", "--threshold"],
        ["witness", "--witness-file", str(path), "--threshold", "--format", "json"],
    ]


def test_exact_commands_load_no_numeric_module(tmp_path):
    argvs = exact_argvs(tmp_path)
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'symppt')"
    assert fresh(argvs, result=loaded) == [[0] * len(argvs), [], ["symppt", "symppt.cli", "symppt.combx"]]


NUMERIC_ARGVS = {
    "spectrum-numeric": ["spectrum", "--n", "6", "--mode", "numeric"],
    "spectrum-both": ["spectrum", "--n", "6", "--mode", "both"],
    "scan": ["scan", "--witness", "W5", "--p-from", "0.97", "--p-to", "1", "--steps", "3"],
    "qudit-check": ["qudit-check", "--d", "3", "--nmax", "4"],
    "witness-report": ["witness", "W5"],
    "witness-validate": ["witness", "W5", "--validate"],
    "witness-p": ["witness", "W5", "--p", "0.97"],
}


# Each command runs first in its interpreter, before `cli` holds any numeric name, so a
# _numeric() call moved below the first numeric name its command reads fails here.
@pytest.mark.parametrize("argv", NUMERIC_ARGVS.values(), ids=NUMERIC_ARGVS.keys())
def test_numeric_command_loads_them_all(argv):
    assert fresh([argv]) == [[0], NUMERIC, None]


# scan's thread pool imports concurrent.futures, and with it logging, only when scan runs.
POOL = "[m for m in ('concurrent.futures', 'logging') if m in sys.modules]"


def test_import_and_exact_commands_load_no_thread_pool(tmp_path):
    argvs = exact_argvs(tmp_path)
    assert fresh([], result=POOL) == [[], [], []]
    assert fresh(argvs, result=POOL) == [[0] * len(argvs), [], []]
    assert fresh([NUMERIC_ARGVS["scan"]], result=POOL) == [[0], NUMERIC, ["concurrent.futures", "logging"]]


def test_numeric_commands_without_numpy_exit_1_with_one_line():
    # numpy is blocked, as if it were not installed; each command gets its own streams.
    code = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
import symppt.cli as cli
results = []
for argv in {list(NUMERIC_ARGVS.values())!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    results = json.loads(proc.stdout)
    assert len(results) == len(NUMERIC_ARGVS)
    for code, out, err in results:
        assert (code, out) == (1, "")
        assert err.startswith("symppt: error: ") and "numpy" in err
        assert len(err.splitlines()) == 1


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
