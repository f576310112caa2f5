"""Wall time of the README's CLI examples as one-shot processes, for two source trees.

Usage, from the root of a checkout:

    python tools/oneshot.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Every
command runs as ``python -m symppt.cli ARGS`` in a fresh interpreter, with
PYTHONPATH set to one tree, PYTHONDONTWRITEBYTECODE=1 and one BLAS thread, so
the time includes interpreter start-up, every import and the command itself.
A round runs each command once per tree, the two runs back to back, the tree
that goes first alternating from round to round.  After ROUNDS (10) rounds the
script prints, per command class, the median and interquartile range of each
tree's wall seconds and the ratio of the medians.

The classes are ``exact`` (commands that need no numpy), ``spectrum numeric``,
``scan``, ``qudit-check`` and ``witness --validate`` (the witness report, which
validates too, and ``--validate``).  A command that exits nonzero, or whose
stdout differs between the trees, makes the script exit 1.

Valid bytecode would spare one tree the compilation of symppt, so the children
run from copies of the trees made without their ``__pycache__`` directories,
one per run of the script, and write none into them: every child compiles
symppt from source, and reads the standard library's and numpy's bytecode
where it always does.  (An empty PYTHONPYCACHEPREFIX would hide those as well,
and time the compilation of numpy.)
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROUNDS = 10
COMMANDS = {
    "exact": [
        ["table1", "--nmax", "10"],
        ["spectrum", "--n", "5", "--k", "2"],
        ["witness", "W5", "--threshold"],
    ],
    "spectrum numeric": [["spectrum", "--n", "5", "--k", "2", "--mode", "both"]],
    "scan": [["scan", "--n", "5", "--witness", "W5", "--p-from", "0.95", "--p-to", "1.0", "--steps", "51"]],
    "qudit-check": [["qudit-check", "--d", "3", "--nmax", "15"]],
    "witness --validate": [["witness", "W5", "--n", "5", "--p", "0.96774"], ["witness", "W9", "--validate"]],
}


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_once(src: str, argv: list[str]) -> tuple[float, int, str]:
    """(wall seconds, exit code, stdout) of one ``python -m symppt.cli`` process."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "symppt.cli", *argv], env=child_env(src),
                          capture_output=True, text=True, timeout=600)
    return perf_counter() - t0, proc.returncode, proc.stdout


def without_bytecode(src: str, dest: str) -> str:
    """A copy of the tree src at dest, without its __pycache__ directories."""
    return shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))


def summary(times: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of the times."""
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q2, q3 - q1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="SRC", help="PARENT_SRC and CHANGE_SRC")
    args = parser.parse_args(argv)
    times = {(cls, side): [] for cls in COMMANDS for side in (0, 1)}
    problems = set()
    with tempfile.TemporaryDirectory(prefix="oneshot-") as tmp:
        trees = [without_bytecode(src, os.path.join(tmp, str(side))) for side, src in enumerate(args.trees)]
        for i in range(ROUNDS):
            for cls, argvs in COMMANDS.items():
                for cmd in argvs:
                    outputs = set()
                    for side in (i % 2, 1 - i % 2):
                        seconds, code, out = run_once(trees[side], cmd)
                        times[cls, side].append(seconds)
                        outputs.add(out)
                        if code:
                            problems.add(f"exit {code} from {args.trees[side]}: {' '.join(cmd)}")
                    if len(outputs) > 1:
                        problems.add(f"stdout differs between the trees: {' '.join(cmd)}")
    print(f"{ROUNDS} rounds; wall seconds, median (IQR)")
    print(f"{'class':<20} {'parent':>18} {'change':>18} {'change/parent':>14}")
    for cls in COMMANDS:
        (pm, piqr), (cm, ciqr) = summary(times[cls, 0]), summary(times[cls, 1])
        print(f"{cls:<20} {pm:>9.4f} ({piqr:.4f}) {cm:>9.4f} ({ciqr:.4f}) {cm / pm:>14.3f}")
    for line in sorted(problems):
        print(f"problem: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
