"""Self-test: a corrupted output is caught and counted in fail_ratio.

    python3 perfbench/selftest.py

For each workload it runs a few real operations in one worker pass, checks
that they pass, corrupts one output, and checks that the benchmark's own
summary then counts exactly that operation as failed and reports the run as
not correct.  It also checks that a known-defect failure is counted in
`failed` while `correct` stays true.  Exits 0 when every case holds.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import run
import workloads

OPS_PER_WORKLOAD = 6


def corrupt(op: dict, res: dict) -> dict:
    """The same result with one number in its output changed."""
    bad = copy.deepcopy(res)
    if "api" in op:
        numeric, conjectured = json.loads(res["out"])
        bad["out"] = json.dumps([numeric * (1 + 1e-6), conjectured])
        return bad
    lines = res["out"].splitlines(keepends=True)
    i = max(j for j, line in enumerate(lines) if re.search(r"\d", line))
    lines[i] = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), lines[i], count=1)
    bad["out"] = "".join(lines)
    return bad


def summary_of(ops: list, report: dict) -> tuple[dict, dict]:
    report = dict(report, traced=False, failures=run.check_pass(ops, report))
    fake_run = {"trace": False, "setup": [(0.1, 0.05, 0.0005)], "passes": [report]}
    return run.summarize(fake_run)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "symppt" / "__init__.py").is_file():
        print("selftest: run from the root of a symppt checkout", file=sys.stderr)
        return 2
    env = run.child_env(root)
    ok = True

    def expect(cond: bool, what: str) -> None:
        nonlocal ok
        ok &= cond
        print(("PASS " if cond else "FAIL ") + what)

    for workload in workloads.WORKLOADS:
        ops = [op for op in workloads.generate(workload, 7) if not workloads.is_known_defect(op)]
        ops = ops[:OPS_PER_WORKLOAD]
        report = run.run_pass(env, root, ops, False, None)
        result, _ = summary_of(ops, report)
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: {len(ops)} untouched outputs pass their checks")
        for i, op in enumerate(ops):
            bad = dict(report, ops=list(report["ops"]))
            bad["ops"][i] = corrupt(op, report["ops"][i])
            result, details = summary_of(ops, bad)
            expect(
                result["failed"] == 1 and not result["correct"]
                and details["fail_ratio"] == 1 / len(ops),
                f"{workload}: corrupted output of `{workloads.op_label(op)}` "
                f"gives fail_ratio {details['fail_ratio']:.3g}",
            )

    ops = [{"argv": ["spectrum", "--n", str(n), "--mode", "both", "--format", "csv"]}
           for n in (workloads.KNOWN_DEFECT_MIN_N - 1, workloads.KNOWN_DEFECT_MIN_N)]
    result, _ = summary_of(ops, run.run_pass(env, root, ops, False, None))
    expect(result["failed"] == 1 and result["correct"],
           "known defect (spectrum --mode both at n=30) counts in failed, correct stays true")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
