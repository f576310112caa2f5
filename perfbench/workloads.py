"""Workload inputs and independent output checks for the symppt benchmark.

Inputs come from the seed alone.  The checks recompute every expected value
here, from closed forms in integer and rational arithmetic or from the
byte-exact goldens in ``golden.json``; this module never imports symppt, so
a check cannot share a defect with the code it checks.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("qudit_coverage", "qubit_scan", "qubit_reference")

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The published witness coefficients (diagonal over Dicke excitation 0..n,
# then the anticorner), as decimal strings so the checks stay exact.
WITNESSES = {
    "W5": (("0.0366656", "-0.134595", "1", "1", "-0.134595", "0.0366656"), "-9.31947"),
    "W7": (
        ("0.00197514", "0.0643064", "-0.189017", "1", "1", "-0.189017", "0.0643064", "0.00197514"),
        "-31.2405",
    ),
    "W9": (
        (
            "0.00235791", "-0.013747", "0.0621661", "-0.1636915", "1",
            "1", "-0.1636915", "0.0621661", "-0.013747", "0.00235791",
        ),
        "-114.305",
    ),
}

QUDIT_DIMS = (2, 3, 4)
QUDIT_NMAX = 15
QUDIT_DIM_LIMIT = 5000
QUDIT_REL_TOL = 1e-9

SCAN_STEPS = 201
SCAN_WINDOWS = 6  # per (witness, cut, format): 9 cuts x 2 formats x 6 = 108 commands

SPECTRUM_N = range(4, 41)
TABLE1_NMAX = range(4, 15)
WITNESS_GRIDS = ("721x360", "1441x720", "2881x1440")

# Failures the seed program is known to have on these inputs (ROADMAP item 4:
# the absolute DEGENERACY_GAP merges the spectrum levels for n >= 30).  They
# stay in the workload and count in `failed`; `correct` stays true as long as
# nothing outside this set fails.
KNOWN_DEFECT_MIN_N = 30


def _bipartite_dim(n: int, d: int, k: int) -> int:
    return math.comb(k + d - 1, d - 1) * math.comb(n - k + d - 1, d - 1)


def qudit_cuts() -> list[tuple[int, int, int]]:
    """The 150 (n, d, k) cuts the README reports as verified."""
    return [
        (n, d, k)
        for d in QUDIT_DIMS
        for n in range(2, QUDIT_NMAX + 1)
        for k in range(1, n // 2 + 1)
        if _bipartite_dim(n, d, k) <= QUDIT_DIM_LIMIT
    ]


def p_min_exact(n: int) -> Fraction:
    """SAPPT threshold 1 / (1 + 2 / [(n+1) C(n, floor(n/2))])."""
    scale = (n + 1) * math.comb(n, n // 2)
    return Fraction(scale, scale + 2)


def _scan_ops(rng: random.Random) -> list[dict]:
    ops = []
    for name in WITNESSES:
        n = len(WITNESSES[name][0]) - 1
        p_min = float(p_min_exact(n))
        for k in range(1, n // 2 + 1):
            for fmt in ("csv", "json"):
                for _ in range(SCAN_WINDOWS):
                    p_from = p_min - rng.uniform(0.002, 0.05)
                    p_to = p_min + rng.uniform(0.1, 1.0) * (1.0 - p_min)
                    argv = [
                        "scan", "--witness", name, "--k", str(k),
                        "--p-from", repr(p_from), "--p-to", repr(p_to),
                        "--steps", str(SCAN_STEPS), "--format", fmt,
                    ]
                    ops.append({"argv": argv})
    return ops


def reference_argvs() -> list[list[str]]:
    """The README's reference commands, in both output formats."""
    argvs = []
    for fmt in ("csv", "json"):
        argvs += [["table1", "--nmax", str(nmax), "--format", fmt] for nmax in TABLE1_NMAX]
        argvs += [
            ["spectrum", "--n", str(n), "--mode", mode, "--format", fmt]
            for n in SPECTRUM_N
            for mode in ("analytic", "numeric", "both")
        ]
    for fmt in ("text", "json"):
        for name in WITNESSES:
            argvs.append(["witness", name, "--format", fmt])
            argvs.append(["witness", name, "--threshold", "--format", fmt])
            argvs += [
                ["witness", name, "--validate", "--grid", grid, "--format", fmt]
                for grid in WITNESS_GRIDS
            ]
    return argvs


def generate(workload: str, seed: int) -> list[dict]:
    """Operations of one pass, in seed-shuffled order.

    An operation is {"api": [n, d, k]} (one qudit_min_eig_check call) or
    {"argv": [...]} (one in-process CLI invocation).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "qudit_coverage":
        ops = [{"api": list(cut)} for cut in qudit_cuts()]
    elif workload == "qubit_scan":
        ops = _scan_ops(rng)
    elif workload == "qubit_reference":
        ops = [{"argv": argv} for argv in reference_argvs()]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def op_label(op: dict) -> str:
    return " ".join(op["argv"]) if "argv" in op else "qudit_min_eig_check %d %d %d" % tuple(op["api"])


def is_known_defect(op: dict) -> bool:
    argv = op.get("argv", [])
    if not argv or argv[0] != "spectrum":
        return False
    opts = _opts(argv)
    return opts["--mode"] in ("numeric", "both") and int(opts["--n"]) >= KNOWN_DEFECT_MIN_N


# --- checks ---------------------------------------------------------------
#
# Each check takes the operation and its result ({"rc", "out", "err"}) and
# returns None when the output is right, or a one-line reason.


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(got: float, want: Fraction | float, abs_tol: float, rel_tol: float) -> bool:
    return abs(got - float(want)) <= abs_tol + rel_tol * abs(float(want))


def _fmt12(x: float) -> float:
    """A float as the CLI prints it: rounded to 12 significant digits."""
    return float(f"{x:.12g}")


def _opts(argv: list[str]) -> dict:
    """Flag values of a CLI argv whose first item is the command."""
    return dict(zip(argv[1::2], argv[2::2]))


def _check_qudit(op: dict, res: dict) -> None:
    n, d, k = op["api"]
    numeric, conjectured = json.loads(res["out"])
    want = Fraction(1, math.comb(n + d - 1, d - 1) * math.comb(n, k))
    _expect(conjectured == str(want), f"conjectured {conjectured} != {want}")
    _expect(
        _close(numeric, want, 0.0, QUDIT_REL_TOL),
        f"min eigenvalue {numeric!r} differs from {want} beyond rel {QUDIT_REL_TOL}",
    )


def _scan_rows(out: str, fmt: str, name: str, n: int, k: int) -> list[dict]:
    if fmt == "json":
        doc = json.loads(out)
        _expect([doc["n"], doc["k"], doc["witness"]] == [n, k, name], "scan header fields")
        return doc["rows"]
    lines = list(csv.reader(io.StringIO(out)))
    header = ["p", "witness_expectation", "lambda_min", "sapt", "witness_detects"]
    _expect(lines[0] == header, f"scan CSV header {lines[0]}")
    rows = []
    for line in lines[1:]:
        _expect(len(line) == 5 and line[3] in ("true", "false") and line[4] in ("true", "false"),
                f"scan CSV row {line}")
        rows.append({
            "p": float(line[0]),
            "witness_expectation": float(line[1]),
            "lambda_min": float(line[2]),
            "sapt": line[3] == "true",
            "witness_detects": line[4] == "true",
        })
    return rows


def _check_scan(op: dict, res: dict) -> None:
    opts = _opts(op["argv"])
    name, k = opts["--witness"], int(opts["--k"])
    diag, corner = WITNESSES[name]
    n = len(diag) - 1
    w = [Fraction(x) for x in diag]
    c = Fraction(corner)
    trace_part = sum(w) / (n + 1)               # Tr(W)/(n+1): uniform part
    ghz_part = (w[0] + w[-1]) / 2 + c           # <GHZ+|W|GHZ+>
    exp_tol = 1e-12 * (1 + abs(float(c)))
    lam0 = Fraction(1, (n + 1) * math.comb(n, k))
    p_min = p_min_exact(n)
    grid = np.linspace(float(opts["--p-from"]), float(opts["--p-to"]), int(opts["--steps"]))
    rows = _scan_rows(res["out"], opts["--format"], name, n, k)
    _expect(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} steps")
    for row, p in zip(rows, grid):
        p = float(p)
        pf = Fraction(p)
        _expect(row["p"] == _fmt12(p), f"p {row['p']!r} != {p!r}")
        # Tr(rho(p) W) is affine in p between the uniform and GHZ+ values.
        want = pf * trace_part + (1 - pf) * ghz_part
        got = row["witness_expectation"]
        _expect(_close(got, want, exp_tol, 1e-11), f"expectation {got!r} != {float(want)!r} at p={p!r}")
        if abs(float(want)) > exp_tol:
            _expect(row["witness_detects"] == (want < 0), f"witness_detects at p={p!r}")
        # The corner pair (k,0), (0,n-k) is an invariant 2x2 block with
        # eigenvalues p*lam0 -+ (1-p)/2; every other eigenvalue is >= p*lam0.
        lam = pf * lam0 - (1 - pf) / 2
        _expect(_close(row["lambda_min"], lam, 1e-12, 1e-11),
                f"lambda_min {row['lambda_min']!r} != {float(lam)!r} at p={p!r}")
        _expect(row["sapt"] == (pf >= p_min), f"sapt flag at p={p!r}")


def spectrum_levels(n: int, k: int) -> list[tuple[Fraction, int]]:
    """Eigenvalues C(n+1, j) / [(n+1) C(n, k)] with multiplicity n+1-2j."""
    denom = (n + 1) * math.comb(n, k)
    return [(Fraction(math.comb(n + 1, j), denom), n + 1 - 2 * j) for j in range(k + 1)]


def _spectrum_entries(out: str, fmt: str, n: int, k: int, fields: list[str]) -> list[list[str]]:
    if fmt == "json":
        doc = json.loads(out)
        _expect([doc["n"], doc["k"]] == [n, k], "spectrum header fields")
        return [[e[f] for f in fields] for e in doc["entries"]]
    lines = list(csv.reader(io.StringIO(out)))
    header = {
        "value": ["value", "multiplicity"],
        "analytic": ["analytic_value", "numeric_value", "multiplicity", "abs_deviation"],
    }[fields[0]]
    _expect(lines[0] == header, f"spectrum CSV header {lines[0]}")
    return lines[1:]


def _numeric_level_ok(got, want: Fraction) -> bool:
    return _close(float(got), want, 1e-12, 1e-9)


def _check_spectrum(op: dict, res: dict) -> None:
    opts = _opts(op["argv"])
    n, mode, fmt = int(opts["--n"]), opts["--mode"], opts["--format"]
    k = n // 2
    levels = spectrum_levels(n, k)
    if mode == "both":
        fields = ["analytic", "numeric", "multiplicity", "abs_deviation"]
    else:
        fields = ["value", "multiplicity"]
    entries = _spectrum_entries(res["out"], fmt, n, k, fields)
    _expect(len(entries) == len(levels), f"{len(entries)} levels, closed form has {len(levels)}")
    max_dev = 0.0
    for entry, (value, mult) in zip(entries, levels):
        _expect(int(entry[fields.index("multiplicity")]) == mult, f"multiplicity of {value}")
        if mode == "analytic":
            _expect(entry[0] == str(value), f"level {entry[0]} != {value}")
        elif mode == "numeric":
            _expect(_numeric_level_ok(entry[0], value), f"level {entry[0]} != {float(value)!r}")
        else:
            _expect(entry[0] == str(value), f"analytic level {entry[0]} != {value}")
            _expect(_numeric_level_ok(entry[1], value), f"numeric level {entry[1]} != {float(value)!r}")
            dev = abs(float(value) - float(entry[1]))
            _expect(_close(float(entry[3]), dev, 1e-12, 0.0), f"abs_deviation {entry[3]}")
            max_dev = max(max_dev, float(entry[3]))
    if mode == "both" and fmt == "json":
        _expect(json.loads(res["out"])["max_abs_deviation"] == max_dev, "max_abs_deviation")


@functools.cache
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _check_golden(op: dict, res: dict) -> None:
    key = " ".join(op["argv"])
    _expect(res["out"] == goldens()[key], "output differs from the golden")


def check(op: dict, res: dict) -> str | None:
    """None if the operation succeeded with the right output, else the reason."""
    if res["rc"] != 0:
        return f"exit {res['rc']}: {res['err'].strip()[:200]}"
    try:
        if "api" in op:
            _check_qudit(op, res)
        elif op["argv"][0] == "scan":
            _check_scan(op, res)
        elif op["argv"][0] == "spectrum":
            _check_spectrum(op, res)
        else:
            _check_golden(op, res)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    return None
