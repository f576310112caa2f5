"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --runs 10 --seconds 20 [--workloads qubit_scan ...]
                                [--trace 0|1] [--out perfbench/baseline/BENCH_x.json]

Runs ``run.py`` once per (workload, seed), one run at a time, with seeds
1..runs (or from --first-seed), and prints per metric the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound BENCHMARK.json sets.  ``--out`` saves every run's result with the
summary, as a record to compare a later commit against.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def load_bounds() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = load_bounds()
    record = {"python": platform.python_version(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "report": lines[:-1]})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bounds.get(name),
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
        print(f"== {workload}: {len(runs)} runs")
        for name, s in summary.items():
            bound = s["bound"]
            flag = "" if bound is None else ("  ok" if s["spread"] < bound / 3 else "  WIDE")
            print(f"   {name:<26} median={s['median']:<12.6g} spread={s['spread']:.4f}"
                  + ("" if bound is None else f" bound={bound}") + flag, flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
