"""Capture the byte-exact goldens of the qubit_reference table1/witness commands.

    PYTHONPATH=src python3 perfbench/goldens.py

Writes perfbench/golden.json, mapping each command line to its stdout.  The
committed file was captured from the code the benchmark was defined on;
recapture only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json

from symppt import cli

import workloads


def main() -> int:
    golden = {}
    for argv in workloads.reference_argvs():
        if argv[0] == "spectrum":
            continue  # checked against the closed form instead
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}; refusing to capture it")
        golden[" ".join(argv)] = out.getvalue()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {len(golden)} goldens to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
