"""Byte-identity check of the symppt CLI between two source trees.

Usage, from the root of a checkout:

    python tools/cli_digest.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
side runs in a fresh interpreter that imports symppt from its own tree and
calls ``symppt.cli.main(argv)`` in-process for every command, after clearing
the CLI's per-process memo ``cli._once``.  A command's digest is the SHA-256
of its exit code, stdout and stderr, and for an ``--out`` command also of the
file it wrote, which is then removed, or of ``None`` where it wrote none; a
command that raises ``SystemExit`` (help) records the exit's code.  The script
prints the command count and every argv whose digests differ, and exits 1 if
any does.

No process writes bytecode, whatever PYTHONDONTWRITEBYTECODE says: each side
runs as ``python -B``, and this process imports ``workloads`` with
``sys.dont_write_bytecode`` set.  Neither tree nor ``perfbench/`` gains a
``__pycache__``.

``commands()`` lists the argvs: they run every line of ``cli.py``'s functions
but ``__getattr__``'s body and ``_json``'s final ``raise``.

``perfbench/workloads.py`` is only imported, never changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCAN_SEED = 7
WITNESS_GRIDS = ("3x1", "4x1", "5x3", "720x360", "721x361", "1000x17", "2880x1440")
FILE_GRIDS = ("3x1", "720x360", "721x360", "1441x7")
WITNESS_FILES = {
    "positive_corner.json": {"name": "pos", "diagonal": [1.0, 0.2, 0.2, 1.0], "corner": 0.4},
    "negative_corner.json": {"name": "neg", "diagonal": [1.0, -0.3, 0.5, 0.5, -0.3, 1.0], "corner": -0.7},
}
# Its product-state minimum is -1: the report and --validate print, then exit 2.
INVALID_WITNESS = {"name": "invalid", "diagonal": [1.0, -3.0, 1.0], "corner": 0.0}
README_EXAMPLES = (
    "table1 --nmax 10",
    "spectrum --n 5 --k 2",
    "spectrum --n 5 --k 2 --mode both",
    "scan --n 5 --witness W5 --p-from 0.95 --p-to 1.0 --steps 51",
    "qudit-check --d 3 --nmax 15",
    "witness W5 --n 5 --p 0.96774",
    "witness W9 --validate",
    "witness W5 --threshold",
)
# One refusal per argument check of the commands.
REFUSALS = (
    "witness",
    "witness W5 --n 6",
    "table1 --nmax 3",
    "table1 --nmax 15",
    "spectrum --n 1000000000",
    "scan --witness W5 --p-from 0.9 --p-to 0.8",
    "scan --witness W5 --p-from 0.9 --p-to 1 --steps 0",
    "scan --witness W5 --p-from 0.9 --p-to 1 --steps 100001",
    "qudit-check --d 3 --nmax 1",
    "witness W5 --grid 7",
)


def commands(tmp: Path) -> list[list[str]]:
    """Every argv of the check.  The witness files it names are written into tmp, and
    its --out commands write there."""
    for filename, data in {**WITNESS_FILES, "invalid.json": INVALID_WITNESS}.items():
        (tmp / filename).write_text(json.dumps(data), encoding="utf-8")
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    import workloads

    argvs = [op["argv"] for op in workloads.generate("qubit_scan", SCAN_SEED)]
    argvs += workloads.reference_argvs()
    argvs += [["qudit-check", "--d", str(d), "--nmax", "15", "--format", fmt]
              for d in (2, 3, 4) for fmt in ("csv", "json")]
    # Past n = 56 the split coefficients divide Python ints, not float64 integers.
    argvs += [["qudit-check", "--d", "2", "--nmax", "64"], ["spectrum", "--n", "57", "--mode", "both"],
              ["spectrum", "--n", "60", "--k", "29", "--mode", "numeric"]]
    for name in ("W5", "W7", "W9"):
        for grid in WITNESS_GRIDS:
            for fmt in ("text", "json"):
                argvs.append(["witness", name, "--grid", grid, "--format", fmt])
                argvs.append(["witness", name, "--validate", "--grid", grid, "--format", fmt])
    for filename in WITNESS_FILES:
        path = str(tmp / filename)
        for grid in FILE_GRIDS:
            argvs.append(["witness", "--witness-file", path, "--grid", grid, "--format", "json"])
            argvs.append(["witness", "--witness-file", path, "--validate", "--grid", grid])
    path = str(tmp / "invalid.json")
    argvs += [["witness", "--witness-file", path], ["witness", "--witness-file", path, "--validate"]]
    argvs += [line.split() for line in README_EXAMPLES + REFUSALS]
    # Past the first n whose k = 1 cut is over the dimension cap, qudit-check stops.
    argvs += [["qudit-check", "--d", "4", "--nmax", "19"], ["witness", "W7", "--p", "0.999", "--format", "json"]]
    argvs += [["table1", "--nmax", "5", "--out", str(tmp / "table1.csv")],
              ["witness", "W5", "--format", "json", "--out", str(tmp / "w5.json")]]
    argvs += [[], ["no-such-command"], ["spectrum"], ["spectrum", "--n", "5", "--mode", "exact"],
              ["table1", "--bogus", "1"], ["table1", "--nmax", "4", "--form", "json"], ["spectrum", "--n=6"],
              ["-h"], ["spectrum", "-h"]]
    return argvs


def digests(src: str, argvs: list[list[str]]) -> list[str]:
    """One hex digest of (exit code, stdout, stderr[, the --out file]) per argv, run in this
    process from src."""
    sys.path.insert(0, src)
    from symppt import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"cli_digest: symppt imported from {cli.__file__}, not from {src}")
    out = []
    for argv in argvs:
        cli._once.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        record = [code, stdout.getvalue(), stderr.getvalue()]
        if "--out" in argv:
            written = Path(argv[argv.index("--out") + 1])
            if written.is_file():
                record.append(written.read_text(encoding="utf-8"))
                written.unlink()
            else:
                record.append(None)
        out.append(hashlib.sha256(json.dumps(record).encode()).hexdigest())
    return out


def run_side(src: str, argvs: list[list[str]]) -> list[str]:
    """digests(src, argvs), computed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--side", src],
        input=json.dumps(argvs), capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"cli_digest: the run from {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--side":
        json.dump(digests(argv[1], json.load(sys.stdin)), sys.stdout)
        return 0
    if len(argv) != 2:
        print("usage: python tools/cli_digest.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        argvs = commands(Path(tmp))
        parent, change = (run_side(src, argvs) for src in argv)
    mismatches = [" ".join(a) for a, p, c in zip(argvs, parent, change) if p != c]
    print(f"{len(argvs)} commands, {len(mismatches)} mismatches")
    for line in mismatches:
        print(f"mismatch: {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
