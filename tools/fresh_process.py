"""Whole-process timings of the CLI: two source trees, one argv at a time.

Each timed run is one fresh ``python -m freeprob ARGV`` process, so it counts
what a user waits for: interpreter start, imports, the command and its
output.  For every argv the two trees alternate run by run (before, after,
then after, before, ...), so a drift in machine speed falls on both.  Every
run's stdout must be the same bytes in both trees, else the script exits 1.
``PYTHONDONTWRITEBYTECODE=1`` is set, as the benchmark sets it: every process
compiles the sources it imports, and the trees stay free of ``__pycache__``.

    python3 tools/fresh_process.py BEFORE_TREE AFTER_TREE --runs 21 --out BENCH.json

A tree is a checkout of this repository (its package under ``src/``).  The
JSON record holds each tree's commit and source digest, the machine, and per
argv the median and quartiles of the wall time in each tree, their ratio and
the number of paired runs in which the after tree was faster.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# the exact subcommands, one analytic freeconv and polya, at the argvs of the
# benchmark's jobs
ARGVS = (
    ("kesten", "--d", "3", "--nmax", "120"),
    ("cumulants", "--moments", "1,2,3,4,5,6,7,8,9", "--lattice", "both"),
    ("wick", "--n", "14"),
    ("weingarten", "--perm", "2,3,4,5,6,1", "--N", "9"),
    ("freeconv", "--law-x", "semicircle", "--law-y", "bernoulli", "--route", "moments",
     "--order", "40"),
    ("freeconv", "--law-x", "arcsine", "--law-y", "arcsine", "--route", "analytic",
     "--grid-size", "64"),
    ("polya", "--d", "3", "--nmax", "5000"),
)


def tree_identity(tree: Path) -> dict:
    """The tree's commit (with ``-dirty`` if it has uncommitted changes) and
    the sha256 of its package sources."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "freeprob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=tree, capture_output=True, text=True)
    commit = done.stdout.strip() if done.returncode == 0 else "unknown"
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


def run_once(tree: Path, argv: tuple) -> tuple:
    """(wall seconds, stdout bytes) of one fresh CLI process in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "freeprob", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=600)
    dt = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode} in {tree}")
    return dt, done.stdout


def summary(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "iqr_s": q3 - q1}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="the tree timed first in the first run")
    parser.add_argument("after", type=Path)
    parser.add_argument("--runs", type=int, default=21, help="timed runs per tree and argv")
    parser.add_argument("--out", type=Path, default=None, help="where to write the JSON record")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}

    rows, differ = [], False
    for argv in ARGVS:
        times = {name: [] for name in trees}
        # one untimed run per tree warms the file cache
        outs = {name: run_once(tree, argv)[1] for name, tree in trees.items()}
        same = outs["before"] == outs["after"]
        for i in range(args.runs):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for name in order:
                dt, out = run_once(trees[name], argv)
                same = same and out == outs[name]
                times[name].append(dt)
        differ = differ or not same
        row = {"argv": list(argv), "stdout_equal": same,
               "before": summary(times["before"]), "after": summary(times["after"]),
               "after_faster_in": sum(a < b for a, b in zip(times["after"], times["before"]))}
        row["ratio"] = row["after"]["median_s"] / row["before"]["median_s"]
        rows.append(row)
        print(f"{' '.join(argv)[:60]:60s} {1e3 * row['before']['median_s']:8.1f} ms -> "
              f"{1e3 * row['after']['median_s']:8.1f} ms  x{row['ratio']:.3f}  "
              f"faster {row['after_faster_in']}/{args.runs}  "
              f"{'same bytes' if same else 'STDOUT DIFFERS'}", flush=True)

    record = {"metric": "wall time of one fresh `python -m freeprob ARGV` process",
              "runs": args.runs, "env": {"PYTHONDONTWRITEBYTECODE": "1"},
              "machine": machine(),
              "trees": {name: tree_identity(tree) for name, tree in trees.items()},
              "argvs": rows}
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
