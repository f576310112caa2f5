"""Run the golden, witness, container and partial-transpose tests under each OpenBLAS kernel and
without numpy's AVX-512 code.

Usage, from the root of a checkout:

    python tools/kernel_matrix.py

OpenBLAS picks a kernel for the CPU it runs on, and ``OPENBLAS_CORETYPE`` forces
one for a single process.  The last bits of LAPACK results depend on the kernel,
and a 12-digit golden cell that sits a few ulps from a rounding tie can print
differently under another one.  This script runs the files in TESTS (the golden,
witness, ``symstate`` and ``ptrans`` tests) in a child ``pytest`` process, one at a
time, under each kernel in CORETYPES, then once more with ``NPY_DISABLE_CPU_FEATURES``
set to numpy's AVX-512 dispatch targets, so that the batched-equals-sequential and
bit-for-bit container checks also run on numpy's AVX2 loops.  Each child gets PYTHONPATH=src,
PYTHONDONTWRITEBYTECODE=1 and one BLAS thread.

It prints one line per setting: ``pass`` or ``fail`` with pytest's closing line,
or ``unsupported`` for a child killed by a signal (a kernel this CPU cannot
run).  The exit status is 1 if any setting failed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ["tests/test_golden.py", "tests/test_witness.py", "tests/test_symstate.py", "tests/test_ptrans.py"]
CORETYPES = ["SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott"]
OVERRIDES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "PYTHONPATH")


def avx512_targets() -> list[str]:
    """numpy's dispatch targets that need AVX-512: X86_V4 and the AVX512* ones."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    return [t for t in __cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]


def settings() -> list[tuple[str, dict]]:
    """(label, environment variables) of each run, in order."""
    runs = [(f"OPENBLAS_CORETYPE={core}", {"OPENBLAS_CORETYPE": core}) for core in CORETYPES]
    disabled = " ".join(avx512_targets())
    runs.append((f"NPY_DISABLE_CPU_FEATURES={disabled}", {"NPY_DISABLE_CPU_FEATURES": disabled}))
    return runs


def run_setting(variables: dict) -> tuple[int, str]:
    """(exit code, pytest's last output line) of the tests in a child with these variables."""
    env = {k: v for k, v in os.environ.items() if k not in OVERRIDES}
    env.update(variables, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def line(label: str, code: int, last: str) -> str:
    """The report of one setting; a negative exit code is a child killed by a signal."""
    if code < 0:
        return f"{label}: unsupported (killed by signal {-code})"
    return f"{label}: {'pass' if code == 0 else 'fail'} ({last})"


def summary(results: list[tuple[str, int, str]]) -> tuple[list[str], int]:
    """The lines of (label, exit code, pytest's last line) results, and the exit status: 1 if any failed."""
    return [line(*result) for result in results], int(any(code > 0 for _, code, _ in results))


def main() -> int:
    results = []
    for label, variables in settings():
        results.append((label, *run_setting(variables)))
        print(line(*results[-1]), flush=True)
    return summary(results)[1]


if __name__ == "__main__":
    sys.exit(main())
