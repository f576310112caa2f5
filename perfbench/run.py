"""Benchmark for symppt: three workloads, end-to-end metrics, a traced run.

Run from the root of a symppt checkout:

    python3 perfbench/run.py --workload qudit_coverage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client drives symppt in a closed loop.  A pass runs every operation of
the workload once, in a fresh interpreter (so the package's caches start
cold, as in a CLI run); passes repeat one after another until ``--seconds``
have gone by.  The outputs of every pass are checked here, in this process,
which never imports symppt.  The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced passes,
alternated with untraced ones to measure the tracing overhead.
``--workload all`` runs every workload untraced and then traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES_PER_PASS = 2
SETUP_PROBES_MIN = 7
PASS_TIMEOUT_S = 150
# Times `import numpy`, then `import symppt.cli`, then runs the worker's speed
# probe so that the import times can be scaled like the latencies.
PROBE = (
    "import sys, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import symppt.cli; t2 = time.perf_counter(); "
    "sys.path.insert(0, {here!r}); import statistics, worker; mat = numpy.eye(12) + 0.1; "
    "probe = statistics.median(worker.speed_probe(numpy, mat) for _ in range(5)); "
    "print(t1 - t0, t2 - t1, probe)"
).format(here=str(HERE))

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "symstate.decompositions": "count",
    "combx.calls": "count",
    "combx.self_s": "s",
    "symstate.self_s": "s",
    "ptrans.self_s": "s",
    "ptrans.blocks": "count",
    "ptrans.max_block": "rows",
    "ptrans.dim_sum": "rows",
    "ptrans.eigensolve_calls": "count",
    "ptrans.eigensolve_s": "s",
    "ptrans.eigensolve_work": "rows3",
    "witness.calls": "count",
    "witness.self_s": "s",
    "witness.grid_points": "points",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "setup.numpy_s": "s",
    "setup.symppt_self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
COUNT_METRICS = {name for name, unit in LAYER_UNITS.items() if unit != "s"}

# Seconds the worker's speed probe takes at the reference machine speed (the
# typical value on the 2-core VM the baseline was taken on).  Latencies are
# reported at this speed; see normalized_ms.
PROBE_REF_S = 0.0005


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    """Environment of every child: symppt from the checkout, one BLAS thread,
    SYMPPT_THREADS unset so the witness grid stays single-threaded, and no
    bytecode written, so every import compiles symppt from source and no run
    depends on what an earlier one left in the checkout."""
    env = {k: v for k, v in os.environ.items() if k not in ("SYMPPT_THREADS", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def setup_times(env: dict, count: int) -> list[tuple[float, float, float]]:
    """(numpy, symppt-on-top, speed probe) seconds of ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import symppt.cli failed:\n{proc.stderr.strip()}")
        numpy_s, symppt_s, probe_s = map(float, proc.stdout.split())
        times.append((numpy_s, symppt_s, probe_s))
    return times


def run_pass(env: dict, root: Path, ops: list, trace: bool, spans_out: Path | None) -> dict:
    job = {"src": str(root / "src"), "ops": ops, "trace": trace,
           "spans_out": str(spans_out) if spans_out else None}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout)


def check_pass(ops: list, report: dict) -> list[tuple[dict, str]]:
    """(operation, reason) for every operation that failed or gave a wrong output."""
    failures = []
    for op, res in zip(ops, report["ops"], strict=True):
        reason = workloads.check(op, res)
        if reason is not None:
            failures.append((op, reason))
    return failures


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "symppt").rglob("*.py")))


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env(root)
    ops = workloads.generate(workload, seed)
    setup_times(env, 1)  # warms the file cache; not a sample
    spans_out = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_out = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"

    # Set-up probes are spread between the passes, so that their median sees
    # the same drift in machine speed as the passes do.
    setup, passes = [], []
    start = perf_counter()
    while True:
        setup += setup_times(env, SETUP_PROBES_PER_PASS)
        traced = trace and len(passes) % 2 == 1
        report = run_pass(env, root, ops, traced, spans_out if traced and len(passes) == 1 else None)
        report["traced"] = traced
        report["failures"] = check_pass(ops, report)
        passes.append(report)
        if perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            break
    if len(setup) < SETUP_PROBES_MIN:
        setup += setup_times(env, SETUP_PROBES_MIN - len(setup))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "ops": ops, "setup": setup, "passes": passes, "spans_out": spans_out,
            "src_lines": src_lines(root)}


def normalized_ms(report: dict) -> list[float]:
    """Latencies of one pass in milliseconds at the reference machine speed.

    On shared hosts the speed of the same code drifts by tens of percent
    within and between runs.  Each latency is scaled by PROBE_REF_S over the
    median of the three speed probes around it (before the previous
    operation, before this one, after it), which cancels that drift.
    """
    probes = report["probes"]
    return [r["ms"] * PROBE_REF_S / statistics.median(probes[max(i - 1, 0):i + 2])
            for i, r in enumerate(report["ops"])]


def time_to_solution(per_pass_ms: list[list[float]]) -> float:
    """Seconds of one pass, as the sum over operations of each operation's
    median latency across the passes.  Every pass runs the same operations in
    the same order; taking medians operation by operation uses all passes and
    keeps one stalled pass from moving the result."""
    return sum(statistics.median(ms) for ms in zip(*per_pass_ms)) / 1e3


def summarize(run: dict) -> tuple[dict, dict]:
    """(final JSON object, details for the human-readable report)."""
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    unexpected = [(op, why) for op, why in failures if not workloads.is_known_defect(op)]
    plain_ms = [normalized_ms(p) for p in plain]
    latencies = [ms for pass_ms in plain_ms for ms in pass_ms]
    p90 = statistics.quantiles(latencies, n=10)[-1]
    # Import seconds (numpy, symppt on top) at the reference machine speed.
    setup = [(a * PROBE_REF_S / probe, b * PROBE_REF_S / probe) for a, b, probe in run["setup"]]
    raw_ms = [[r["ms"] for r in p["ops"]] for p in plain]
    raw_latencies = [ms for pass_ms in raw_ms for ms in pass_ms]
    details = {
        "raw": {
            "setup_s": statistics.median(a + b for a, b, _ in run["setup"]),
            "wall_s": time_to_solution(raw_ms),
            "op_p50_ms": statistics.median(raw_latencies),
            "op_p90_ms": statistics.quantiles(raw_latencies, n=10)[-1],
        },
        "probe_ms": statistics.median(x for p in plain for x in p["probes"]) * 1e3,
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "failures": failures,
        "unexpected": unexpected,
        "fail_ratio": len(failures) / attempted,
    }
    if not run["trace"]:
        values = {
            "setup_s": statistics.median([a + b for a, b in setup]),
            "wall_s": time_to_solution(plain_ms),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": p90,
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
        }
        units = E2E_UNITS
    else:
        layers = [p["layers"] for p in traced]
        counts_repeat = all(
            all(layer[name] == layers[0][name] for name in COUNT_METRICS)
            for layer in layers
        )
        details["counts_repeat"] = counts_repeat
        details["spans"] = layers[0]["spans"]
        values = {}
        for name in LAYER_UNITS:
            if name in COUNT_METRICS:
                values[name] = layers[0][name]
            elif name in layers[0]:
                values[name] = statistics.median([layer[name] for layer in layers])
        values["setup.numpy_s"] = statistics.median([a for a, _ in setup])
        values["setup.symppt_self_s"] = statistics.median([b for _, b in setup])
        values["trace.wall_s"] = time_to_solution([normalized_ms(p) for p in traced])
        values["trace.untraced_wall_s"] = time_to_solution(plain_ms)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units = LAYER_UNITS
    result = {
        "correct": not unexpected and (not run["trace"] or details["counts_repeat"]),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, details


def print_report(run: dict, result: dict, details: dict) -> None:
    meta = run["passes"][0]
    blas = meta["blas"]
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    print(f"symppt benchmark: workload={run['workload']} seed={run['seed']} "
          f"seconds={run['seconds']} trace={int(run['trace'])}")
    print(f"  cores={os.cpu_count()} usable={usable} python={platform.python_version()} "
          f"numpy={meta['numpy']} blas={blas['name']} {blas['version']} "
          f"blas_threads={blas['threads']} SYMPPT_THREADS={meta['symppt_threads']} "
          f"src_lines={run['src_lines']}")
    print(f"  {len(run['ops'])} operations per pass; {details['passes']} untraced and "
          f"{details['traced_passes']} traced passes; {len(run['setup'])} set-up probes; "
          f"one client, closed loop")
    for name, m in result["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  times above are at the reference machine speed: the speed probe took "
          f"{details['probe_ms']:.4f} ms (median) against {PROBE_REF_S * 1e3:g} ms; unscaled: "
          + ", ".join(f"{k}={v:.6g}" for k, v in details["raw"].items()))
    if not run["trace"]:
        print(f"  latency samples={details['samples']}, {details['beyond_p90']} beyond p90")
    else:
        print(f"  spans per traced pass={details['spans']}, counts repeat across traced passes: "
              f"{details['counts_repeat']}")
        if run["spans_out"]:
            print(f"  spans written to {os.path.relpath(run['spans_out'])}")
    print(f"  fail_ratio                 {details['fail_ratio']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']}; "
          f"{len(details['unexpected'])} outside the known defects)")
    known = [f for f in details["failures"] if workloads.is_known_defect(f[0])]
    if known:
        op, why = known[0]
        print(f"    known defect ({len(known)} failures, spectrum numeric/both at "
              f"n >= {workloads.KNOWN_DEFECT_MIN_N}), e.g. {workloads.op_label(op)}: {why}")
    for label, why in sorted({(workloads.op_label(op), why) for op, why in details["unexpected"]}):
        print(f"    FAILED: {label}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "symppt" / "__init__.py").is_file():
        print(f"perfbench: no src/symppt under {root}; run from the root of a symppt checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for t in (False, True) for w in workloads.WORKLOADS]
    else:
        plan = [(args.workload, bool(args.trace))]
    try:
        for workload, trace in plan:
            run = measure(root, workload, args.seed, args.seconds, trace)
            result, details = summarize(run)
            print_report(run, result, details)
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
