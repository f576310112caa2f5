"""Command-line surface: reference tables and scan data as CSV or JSON.

Every command is deterministic: floats are printed with 12 significant
digits, exact rationals as "num/den", CSV with comma separators and LF
line endings.  Exit codes: 0 success, 1 argument error, 2 numerical
failure or check violation.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .combx import (GRID_DEFAULT, Bipartition, Spectrum, builtin_witness, detection_threshold, load_witness_file,
                    maxmixed_pt_spectrum, print_limit_exceeded, sappt_threshold_qubits, symmetric_dimension)

# Bound by _numeric() on first numeric use: table1, spectrum --mode analytic and witness --threshold need none.
_NUMERIC = {
    "ptrans": ("np", "DIM_CAP", "maxmixed_pt", "min_eigenvalue", "partial_transpose_a", "qudit_min_eig_check"),
    "symstate": ("BipartiteOperator", "embed_bipartite"),
    "witness": ("expectation_value", "ghz_witness_mixture", "minimize_over_products"),
}

# Absolute, on |analytic - numeric| per level of the transposed uniform state: its trace 1 fixes the scale.
SPECTRUM_BOTH_TOL = 1e-10
# Relative to the conjectured minimum eigenvalue, plus the eigensolver rounding on its weight block.
QUDIT_CHECK_REL_TOL = 1e-9
EPS = sys.float_info.epsilon
# The p grid is checked against this cap before it is allocated.
SCAN_STEPS_CAP = 100_000
# One chunk's stack of transposed states, in bytes: it bounds the memory a scan
# holds at once, whatever the dimension or the number of steps.
SCAN_CHUNK_BYTES = 100 * 1024

# Fourth column of the reference table: entanglement boundary obtained
# upstream with a truncated-moment semidefinite method.  Those values are
# shipped as documented constants and never recomputed here.
_PENT_REFERENCE = {
    4: "15/16",
    5: "0.96953",
    6: "70/71",
    7: "0.99329",
    8: "315/316",
    9: "0.99849",
    10: "1386/1387",
}


@functools.cache
def _numeric() -> None:
    """Bind the _NUMERIC names here once per process, keeping any already set (a patch sees every call)."""
    for module, attrs in _NUMERIC.items():
        module = importlib.import_module(f"{__package__}.{module}")
        for attr in attrs:
            globals().setdefault(attr, getattr(module, attr))


def __getattr__(name: str):
    """PEP 562: reading a _NUMERIC name before any numeric command binds them all."""
    if any(name in attrs for attrs in _NUMERIC.values()):
        _numeric()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


class Table(NamedTuple):
    """One command's result: JSON ``{**header, key: rows, **trailer}`` or CSV
    (``csv_columns or columns``, then the rows); ``text`` for the text format.
    A ``note`` is printed to stderr after the output; a ``violation`` is
    printed after it and makes the exit code 2."""

    header: dict
    key: str | None = None
    columns: tuple = ()
    rows: list = []
    trailer: dict = {}
    csv_columns: tuple = ()
    text: str = ""
    note: str = ""
    violation: str = ""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _csv(x) -> str:
    return _fmt(x) if isinstance(x, float) else str(x).lower() if isinstance(x, bool) else str(x)


def _enclose(items: list, brackets: str, indent: str) -> str:
    """JSON members, each led by its line break, in brackets closed on a line led by `indent`."""
    return brackets[0] + ",".join(items) + indent + brackets[1] if items else brackets


def _json(x, indent: str) -> str:
    """A typed cell, or a dict, list or tuple of them, as json.dumps(..., indent=2) writes it on a
    line led by `indent`: floats to 12 significant digits, rationals as strings, ASCII only."""
    if isinstance(x, float):
        text = repr(float(_fmt(x)))
        return text if text[-1].isdigit() else {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text]
    if isinstance(x, bool) or x is None:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, (str, Fraction)):
        return encode_basestring_ascii(str(x))
    inner = indent + "  "
    if isinstance(x, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in x.items()]
        return _enclose(items, "{}", indent)
    if isinstance(x, (list, tuple)):
        return _enclose([inner + _json(v, inner) for v in x], "[]", indent)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _limit(what: str, value: float, tol: float) -> str:
    """The violation `value` makes against `tol`: a nan value is one."""
    return "" if value <= tol else f"{what} {value} exceeds {tol}"


def _worst(values) -> float:
    """max(values), 0.0 for none, and nan if any value is nan: the builtin max keeps or drops a
    nan by where it falls."""
    return max(values, key=lambda v: (math.isnan(v), v), default=0.0)


def _render(table: Table, fmt: str) -> str:
    if fmt == "text":
        return table.text
    if fmt == "csv":
        lines = [",".join(table.csv_columns or table.columns)]
        lines += [",".join(map(_csv, row)) for row in table.rows]
        return "\n".join(lines) + "\n"
    # {**header, key: rows, **trailer} with each value rendered; the rows fill one %-template.
    doc = {key: _json(value, "\n  ") for key, value in table.header.items()}
    if table.key:
        keys = [f"\n      {encode_basestring_ascii(c).replace('%', '%%')}: %s" for c in table.columns]
        template = _enclose(keys, "{}", "\n    ")
        rows = ["\n    " + template % tuple([_json(x, "\n      ") for x in row]) for row in table.rows]
        doc[table.key] = _enclose(rows, "[]", "\n  ")
    doc.update((key, _json(value, "\n  ")) for key, value in table.trailer.items())
    return _enclose([f"\n  {encode_basestring_ascii(k)}: {v}" for k, v in doc.items()], "{}", "\n") + "\n"


def _resolve_witness(args):
    """The requested witness and the qubit count it acts on."""
    if args.witness_file:
        w = load_witness_file(args.witness_file)
    elif args.witness:
        w = builtin_witness(args.witness)
    else:
        raise ValueError("a witness name (W5/W7/W9) or --witness-file is required")
    n = args.n if args.n is not None else w.n
    if w.dim != n + 1:
        raise ValueError(f"{args.command}: witness dim {w.dim} does not match n={n}")
    return w, n


def cmd_table1(args) -> Table:
    if not 4 <= args.nmax <= 14:
        raise ValueError(f"table1: nmax must lie in [4, 14], got {args.nmax}")
    rows = []
    for n in range(4, args.nmax + 1):
        p_min = sappt_threshold_qubits(n)
        p_ent_w = detection_threshold(builtin_witness(f"W{n}"), n) if n in (5, 7, 9) else "/"
        ref = _PENT_REFERENCE.get(n, "/")
        rows.append((n, p_min, float(p_min), p_ent_w, ref, "not-reproduced" if ref != "/" else "/"))
    columns = ("n", "p_min", "p_min_float", "p_ent_witness", "p_ent_ref", "p_ent_ref_status")
    return Table({}, "rows", columns, rows)


@functools.cache
def _once(f, *args):
    """f(*args), once per function and arguments per process; a failure is not kept.
    Callers pass cli's own binding of f, so a patched binding is both what runs and the key."""
    return f(*args)


def _numeric_spectrum(bip: Bipartition) -> Spectrum:
    """Grouped eigenvalues of the dense transposed uniform state: through _once, only the
    Spectrum (at most k + 1 levels) is kept, never the matrix."""
    _numeric()
    return Spectrum.from_eigenvalues(np.linalg.eigvalsh(maxmixed_pt(bip).matrix))


def cmd_spectrum(args) -> Table:
    bip = Bipartition(args.n, args.k if args.k is not None else args.n // 2)
    header = {"n": bip.n, "k": bip.k}
    if args.mode == "analytic" and (limit := print_limit_exceeded((bip.n + 1, 1), (bip.n, bip.k))):
        raise ValueError(f"spectrum: denominator (n+1) C(n, k) has more than {limit} digits to print")
    if args.mode != "analytic":
        numeric = _once(_numeric_spectrum, bip)
    if args.mode != "both":
        spec = _once(maxmixed_pt_spectrum, bip) if args.mode == "analytic" else numeric
        return Table(header, "entries", ("value", "multiplicity"), list(spec.entries))

    analytic = _once(maxmixed_pt_spectrum, bip)
    if [m for _, m in analytic.entries] != [m for _, m in numeric.entries]:
        raise RuntimeError("spectrum: numeric degeneracy structure deviates from the closed form")
    rows = []
    for (va, m), (vn, _) in zip(analytic.entries, numeric.entries):
        rows.append((va, vn, m, abs(float(va) - vn)))
    max_dev = _worst(row[3] for row in rows)
    violation = _limit("spectrum: max deviation", max_dev, SPECTRUM_BOTH_TOL)
    columns = ("analytic", "numeric", "multiplicity", "abs_deviation")
    csv_columns = ("analytic_value", "numeric_value", "multiplicity", "abs_deviation")
    trailer = {"max_abs_deviation": max_dev}
    return Table(header, "entries", columns, rows, trailer, csv_columns, violation=violation)


def _scan_chunk(dim: int) -> int:
    """p values per chunk: as many dim x dim complex matrices as SCAN_CHUNK_BYTES holds."""
    return max(1, SCAN_CHUNK_BYTES // (16 * dim * dim))


def cmd_scan(args) -> Table:
    _numeric()
    if not (0 <= args.p_from <= args.p_to <= 1):
        raise ValueError(f"scan: need 0 <= p-from <= p-to <= 1, got [{args.p_from}, {args.p_to}]")
    if args.steps < 1:
        raise ValueError(f"scan: steps must be >= 1, got {args.steps}")
    if args.steps > SCAN_STEPS_CAP:
        raise ValueError(f"scan: steps must be <= {SCAN_STEPS_CAP}, got {args.steps}")
    w, n = _resolve_witness(args)
    bip = Bipartition(n, args.k if args.k is not None else n // 2)
    # sapt is Fraction(p) >= p_min, exactly: p >= sapt_from, the least float >= p_min.
    p_min = sappt_threshold_qubits(n)
    sapt_from = float(p_min)
    if Fraction(sapt_from) < p_min:
        sapt_from = math.nextafter(sapt_from, math.inf)

    # rho(p)^T_A is affine in p: combine the transposed uniform part and the
    # transposed GHZ projector once per p instead of re-embedding.
    pt_uniform = maxmixed_pt(bip).matrix
    pt_ghz = partial_transpose_a(embed_bipartite(ghz_witness_mixture(n, 0.0), bip)).matrix

    # Each chunk of p values takes the per-p route as one stack: every check sees every matrix.
    # States and transposed operators are chunked apart, each by its own dimension.
    ps = np.linspace(args.p_from, args.p_to, args.steps)
    trs = []
    step = _scan_chunk(w.dim)
    for chunk in (ps[i:i + step] for i in range(0, len(ps), step)):
        trs += expectation_value(ghz_witness_mixture(n, chunk), w).tolist()

    def lambda_min(chunk):
        p = chunk[:, None, None]
        stack = p * pt_uniform + (1 - p) * pt_ghz
        stack.flags.writeable = False  # as symstate._frozen: the container keeps it without a copy
        return min_eigenvalue(BipartiteOperator(bip, stack)).tolist()

    # The operator chunks run on one thread per usable core, in a pool that lives for this
    # command only (a kept pool goes stale in a forked child).  Stacked eigh releases the GIL
    # and solves each matrix with its own LAPACK call, so the bits are the serial loop's; map
    # yields in p order and re-raises the first failing chunk in p order.  Imported here:
    # concurrent.futures loads logging, which import symppt.cli and the exact commands skip.
    from concurrent.futures import ThreadPoolExecutor

    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    step = _scan_chunk(bip.dim)
    lams = []
    with ThreadPoolExecutor(workers) as pool:
        for part in pool.map(lambda_min, (ps[i:i + step] for i in range(0, len(ps), step))):
            lams += part
    rows = [(p, tr, lam, p >= sapt_from, tr < 0) for p, tr, lam in zip(ps.tolist(), trs, lams)]
    columns = ("p", "witness_expectation", "lambda_min", "sapt", "witness_detects")
    return Table({"n": n, "k": bip.k, "witness": w.name}, "rows", columns, rows)


def cmd_qudit_check(args) -> Table:
    _numeric()
    if args.nmax < 2:
        raise ValueError(f"qudit-check: nmax must be >= 2, got {args.nmax}")
    rows, ratios = [], []
    # S(m) = C(m + d - 1, d - 1) = prod_i (m + i) / i is log-concave in m, so
    # log dim(n, k) = log S(k) + log S(n - k) is concave in k and symmetric about n/2:
    # nondecreasing on 1 <= k <= n/2, so past the first k over the cap every k is.
    # dim(n, 1) = d S(n - 1) grows with n, so past the first n whose k = 1 cut is over,
    # every n is.  Of the floor(N^2 / 4) cuts with n <= N, all but the rows are skipped.
    for n in range(2, args.nmax + 1):
        if Bipartition(n, 1, args.d).dim > DIM_CAP:
            break
        for k in range(1, n // 2 + 1):
            bip = Bipartition(n, k, args.d)
            if bip.dim > DIM_CAP:
                break
            numeric, conjectured = qudit_min_eig_check(n, args.d, k)
            delta = abs(numeric - float(conjectured))
            # eigvalsh rounds by about size * eps * norm on one weight block:
            # size <= min(dim_a, dim_b), and partial transposition keeps the
            # Frobenius norm, so norm <= that of the uniform state, D^(-1/2).
            rounding = min(bip.dim_a, bip.dim_b) * EPS / math.sqrt(symmetric_dimension(n, args.d))
            ratios.append(delta / (QUDIT_CHECK_REL_TOL * float(conjectured) + rounding))
            rows.append((n, k, bip.dim, numeric, conjectured, delta))
    worst = _worst(row[5] for row in rows)
    what = f"qudit-check: max |delta| / ({QUDIT_CHECK_REL_TOL} * conjectured + eigensolver rounding)"
    violation = _limit(what, _worst(ratios), 1.0)
    total = args.nmax**2 // 4
    skipped = total - len(rows)
    note = ""
    if skipped:
        note = f"qudit-check: skipped {skipped} of {total} cuts: bipartite dimension above {DIM_CAP}"
    columns = ("n", "k", "dim", "min_eig", "conjectured", "abs_delta")
    trailer = {"max_abs_delta": worst}
    return Table({"d": args.d}, "rows", columns, rows, trailer, note=note, violation=violation)


def _invalid(w, val: float) -> str:
    """The violation a negative product-state minimum makes: the witness certifies nothing."""
    return f"witness {w.name}: product-state minimum {_fmt(val)} < 0, not a valid witness" if val < 0 else ""


def cmd_witness(args) -> Table:
    w, n = _resolve_witness(args)
    if args.threshold:
        thr = detection_threshold(w, n)
        return Table({"witness": w.name, "detection_threshold": thr}, text=_fmt(thr) + "\n")
    _numeric()
    if args.validate:
        val, (theta, phi) = _once(minimize_over_products, w, args.grid)
        text = f"min={_fmt(val)} theta={_fmt(theta)} phi={_fmt(phi)}\n"
        header = {"witness": w.name, "product_min": val, "theta": theta, "phi": phi}
        return Table(header, text=text, violation=_invalid(w, val))

    # Product-state values out of double range are the error to report, even when the
    # expectation is also constant in p, so the minimum is taken before the threshold.
    p_min = sappt_threshold_qubits(n)
    val, (theta, phi) = _once(minimize_over_products, w, args.grid)
    thr = detection_threshold(w, n)
    # A valid witness has t >= 0, so with g = Tr rho(0) W < 0 it detects rho(p) exactly for p < p*.
    certified = val >= 0 and expectation_value(ghz_witness_mixture(n, 0.0), w) < 0 and thr > float(p_min)
    interval = [float(p_min), thr] if certified else None
    report = {
        "witness": w.name,
        "dim": w.dim,
        "n": n,
        "p_min": p_min,
        "p_min_float": float(p_min),
        "detection_threshold": thr,
        "certified_interval": interval,
        "product_min": val,
        "product_argmin": {"theta": theta, "phi": phi},
    }
    lines = [
        f"witness: {w.name}",
        f"dim: {w.dim}",
        f"n: {n}",
        f"p_min: {p_min} ({_fmt(p_min)})",
        f"detection_threshold: {_fmt(thr)}",
    ]
    if interval:
        lines.append(f"certified_entangled_sappt_interval: [{_fmt(p_min)}, {_fmt(thr)}]")
    lines.append(f"product_min: {_fmt(val)} at theta={_fmt(theta)}, phi={_fmt(phi)}")
    if args.p is not None:
        tr = expectation_value(ghz_witness_mixture(n, args.p), w)
        verdict = "entangled (witness)" if tr < 0 else "not detected"
        report.update(p=args.p, expectation=tr, verdict=verdict)
        lines += [f"expectation(p={_fmt(args.p)}): {_fmt(tr)}", f"verdict: {verdict}"]
    return Table(report, text="\n".join(lines) + "\n", violation=_invalid(w, val))


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects WxH (e.g. 721x360), got {text!r}")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="symppt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # _parse_args hands a command's arguments to its subparser alone, so each subparser
    # is kept by name and sets `command` itself.
    parser._commands = sub.choices

    def command(name, func, help, formats=("csv", "json")):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default=formats[0], help="output format")
        p.add_argument("--out", default=None, help="write output to PATH instead of stdout")
        p.set_defaults(func=func, command=name)
        return p

    p = command("table1", cmd_table1, "SAPPT thresholds and witness detection bounds per qubit count")
    p.add_argument("--nmax", type=int, default=10, help="largest qubit count (4..14)")

    p = command("spectrum", cmd_spectrum, "spectrum of the transposed uniform symmetric state")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--k", type=int, default=None, help="A-side size (default floor(n/2))")
    p.add_argument("--mode", choices=("analytic", "numeric", "both"), default="analytic")

    p = command("scan", cmd_scan, "witness expectation and PT minimum eigenvalue over a p range")
    p.add_argument("--n", type=int, default=None, help="qubit count (default witness dim - 1)")
    p.add_argument("--k", type=int, default=None, help="A-side size (default floor(n/2))")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--witness", default=None, help="builtin witness name (W5/W7/W9)")
    source.add_argument("--witness-file", default=None, help="JSON witness file")
    p.add_argument("--p-from", type=float, required=True, dest="p_from")
    p.add_argument("--p-to", type=float, required=True, dest="p_to")
    p.add_argument("--steps", type=int, default=11)

    p = command("qudit-check", cmd_qudit_check, "numeric vs conjectured PT minimum for qudit sectors")
    p.add_argument("--d", type=int, required=True, help="local dimension")
    p.add_argument("--nmax", type=int, default=15, help="largest particle count")

    p = command("witness", cmd_witness, "witness report: threshold, validity, expectation",
                formats=("text", "json"))
    source = p.add_mutually_exclusive_group()
    source.add_argument("witness", nargs="?", default=None, help="builtin witness name (W5/W7/W9)")
    source.add_argument("--witness-file", default=None, help="JSON witness file")
    p.add_argument("--n", type=int, default=None, help="qubit count (default witness dim - 1)")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--p", type=float, default=None, help="mixture parameter for the expectation")
    only.add_argument("--validate", action="store_true", help="only the product-state minimum")
    only.add_argument("--threshold", action="store_true", help="only the detection threshold")
    p.add_argument("--grid", type=_parse_grid, default=GRID_DEFAULT, help="validation grid WxH")
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), walking argv once: the top-level parser would hand
    everything after a command name to that command's subparser, so it goes there directly.
    An empty argv, help and an unknown command stay with the top-level parser."""
    parser = build_parser()
    sub = parser._commands.get(argv[0]) if argv else None
    return sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        table = args.func(args)
        text = _render(table, args.format)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, ImportError) as exc:
        print(f"symppt: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"symppt: numerical failure: {exc}", file=sys.stderr)
        return 2
    if table.note:
        print(table.note, file=sys.stderr)
    if table.violation:
        print(table.violation, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
