"""One pass of a workload in a fresh interpreter.

Reads a job ({"src", "ops", "trace", "spans_out"}) as JSON on stdin, checks
that symppt was imported from ``src``, runs the operations one after another,
and writes one JSON object to stdout: per-operation latencies and outputs,
the speed-probe times, peak RSS, BLAS details and (when traced) the layer
metrics.  Checking the outputs is left to the parent, outside the timed
section.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter


def _blas_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def speed_probe(np, mat) -> float:
    """Seconds taken by a fixed mix of rational, integer and small LAPACK work.

    It runs before every operation and after the last, outside the timed
    intervals, so that each latency can be scaled by how fast the machine ran
    at that moment (see run.py).
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(1, i)
    total = 0
    for i in range(3000):
        total += (i * i) % 7
    np.linalg.eigvalsh(mat)
    return perf_counter() - t0


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    import numpy as np
    import symppt
    from symppt import cli, ptrans, symstate, witness

    if Path(symppt.__file__).resolve().parent != src / "symppt":
        raise SystemExit(f"worker: imported symppt from {symppt.__file__}, not {src}")

    rec = None
    if job["trace"]:
        import tracing

        rec = tracing.Recorder()
        modules = {"cli": cli, "ptrans": ptrans, "symstate": symstate, "witness": witness}
        tracing.install(rec, modules, np.linalg)

    probe_mat = np.eye(12) + 0.1
    results, probes = [], []
    for i, op in enumerate(job["ops"]):
        if rec is not None:
            rec.current_op = i
        probes.append(speed_probe(np, probe_mat))
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            if "api" in op:
                value = ptrans.qudit_min_eig_check(*op["api"])
                rc = 0
            else:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(op["argv"])
        except Exception as exc:  # one failed operation must not end the pass
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        ms = (perf_counter() - t0) * 1e3
        if "api" in op and rc == 0:
            numeric, conjectured = value
            out.write(json.dumps([numeric, str(conjectured)]))
        results.append({"ms": ms, "rc": rc, "out": out.getvalue(), "err": err.getvalue()})
    probes.append(speed_probe(np, probe_mat))

    report = {
        "ops": results,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "symppt_threads": os.environ.get("SYMPPT_THREADS", "unset"),
    }
    if rec is not None:
        layers = rec.layer_metrics()
        layers["cli.bytes_out"] = sum(len(r["out"].encode()) for r, op in zip(results, job["ops"])
                                      if "argv" in op)
        report["layers"] = layers
        if job.get("spans_out"):
            rec.dump(job["spans_out"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
