"""In-process timings of the analytic route: two source trees, one argv at a time.

Each sample is one fresh interpreter that imports ``freeprob.cli`` from a
tree, runs the argv once untimed (numpy's first load and first-call caches),
then times ``REPEATS`` calls of ``cli.run(argv)`` in process and keeps their
median, so it counts the command's own work and its output, not interpreter
start or imports.  After its timed calls the interpreter samples the
machine's speed with perfbench's ``SpeedProbe`` (`perfbench/speed.py`), and
the sample's normalised median is its raw median divided by that slowdown:
its time on a machine of the probe's reference speed.  For every argv the two
trees alternate sample by sample (before, after, then after, before, ...), so
a slow drift in machine speed falls on both, and the normalisation takes out
the drift from one interpreter to the next.  Ratios and win counts are of the
normalised medians.  Each sample's last report must pass perfbench's
``analytic`` judge (`perfbench/checks.py`: output mass 1, m_1..m_4 within 0.1
of the exact route, ``moments_quadrature`` against it, no atoms), else the
script exits 1; unlike ``tools/fresh_process.py`` it allows the trees' bytes
to differ.
``PYTHONDONTWRITEBYTECODE=1`` is set, as the benchmark sets it.

    python3 tools/analytic_scaling.py BEFORE_TREE AFTER_TREE --runs 11 --out BENCH.json

A tree is a checkout of this repository (its package under ``src/``).  The
JSON record holds each tree's commit and source digest, the machine, and per
argv the median and quartiles of the samples in each tree, normalised and
raw, the normalised medians' ratio and the number of paired samples in which
the after tree's normalised time was lower.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from fresh_process import machine, summary, tree_identity

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
PROBE_SAMPLES = 5  # speed-probe loops after the timed calls, about 3 ms each

# pairs with a density on both sides, one with an atom on each side, at a
# grid where the solve dominates and at four times it; then equal laws, which
# take the power route: atoms only at perfbench's grid and at 2048, and
# densities near the axis
PAIRS = (("arcsine", "arcsine"), ("semicircle", "arcsine"),
         ("marchenko_pastur:lam=0.5", "bernoulli"))


def _argv(x: str, y: str, *options: str) -> tuple:
    return ("freeconv", "--law-x", x, "--law-y", y, "--route", "analytic", *options)


ARGVS = tuple(_argv(x, y, "--grid-size", grid) for grid in ("512", "2048") for x, y in PAIRS) + (
    _argv("bernoulli", "bernoulli", "--grid-size", "256"),
    _argv("bernoulli", "bernoulli", "--grid-size", "2048"),
    _argv("arcsine", "arcsine", "--grid-size", "512", "--eta", "1e-7"),
)


def worker(argv: list) -> dict:
    """Run in a fresh interpreter: the times of ``REPEATS`` in-process runs of
    ``argv`` after one untimed run, the machine's slowdown sampled right
    after them, and the problems perfbench's analytic judge finds in the last
    report."""
    import contextlib
    import io
    from fractions import Fraction
    from time import perf_counter

    import checks
    import workloads
    from freeprob import cli
    from speed import SpeedProbe

    def run(args) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(args)
        return code, out.getvalue()

    run(argv)
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        code, text = run(argv)
        times.append(perf_counter() - t0)
        if code != 0:
            return {"times": times, "slowdown": 1.0, "problems": [f"exit code {code}"]}
    probe = SpeedProbe()
    for _ in range(PROBE_SAMPLES):
        probe.sample()
    slowdown = probe.slowdown()
    job = workloads.Job(" ".join(argv), tuple(argv), "analytic")
    code, exact_text = run(checks.exact_moments_argv(job, 6))
    if code != 0:
        return {"times": times, "slowdown": slowdown,
                "problems": [f"exact moment route exited {code}"]}
    exact = [Fraction(v) for v in json.loads(exact_text)["result"]["moments"]]
    problems, _ = checks.check_analytic(job, json.loads(text), {}, exact)
    return {"times": times, "slowdown": slowdown, "problems": problems}


def sample(tree: Path, argv: tuple) -> dict:
    """One fresh interpreter's `worker` result for ``argv`` in ``tree``."""
    path = os.pathsep.join(str(p) for p in (tree / "src", ROOT / "perfbench", ROOT / "tools"))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    env.pop("FREEPROB_SEED", None)
    code = ("import json, sys, analytic_scaling; "
            "print(json.dumps(analytic_scaling.worker(sys.argv[1:])))")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="the tree sampled first in the first pair")
    parser.add_argument("after", type=Path)
    parser.add_argument("--runs", type=int, default=11, help="fresh interpreters per tree and argv")
    parser.add_argument("--out", type=Path, default=None, help="where to write the JSON record")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}

    rows, failed = [], False
    for argv in ARGVS:
        raw = {name: [] for name in trees}
        times = {name: [] for name in trees}  # normalised
        problems = {name: set() for name in trees}
        for i in range(args.runs):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for name in order:
                got = sample(trees[name], argv)
                median = sorted(got["times"])[len(got["times"]) // 2]
                raw[name].append(median)
                times[name].append(median / got["slowdown"])
                problems[name].update(got["problems"])
        failed = failed or any(problems.values())
        row = {"argv": list(argv),
               "problems": {name: sorted(found) for name, found in problems.items()},
               "before": summary(times["before"]), "after": summary(times["after"]),
               "before_raw": summary(raw["before"]), "after_raw": summary(raw["after"]),
               "after_faster_in": sum(a < b for a, b in zip(times["after"], times["before"]))}
        row["ratio"] = row["after"]["median_s"] / row["before"]["median_s"]
        rows.append(row)
        print(f"{' '.join(argv[2:5:2])} {' '.join(argv[7:])}: "
              f"{1e3 * row['before']['median_s']:7.2f} ms -> "
              f"{1e3 * row['after']['median_s']:7.2f} ms  x{row['ratio']:.3f}  "
              f"(raw x{row['after_raw']['median_s'] / row['before_raw']['median_s']:.3f})  "
              f"faster {row['after_faster_in']}/{args.runs}"
              + ("" if not any(problems.values()) else f"  PROBLEMS {row['problems']}"),
              flush=True)

    record = {"metric": f"median of {REPEATS} in-process `cli.run(ARGV)` calls after one "
                        "untimed call, one fresh interpreter per sample, divided by the "
                        f"slowdown of {PROBE_SAMPLES} SpeedProbe loops sampled right after "
                        "them (the *_raw entries are not divided)",
              "runs": args.runs, "env": {"PYTHONDONTWRITEBYTECODE": "1"},
              "machine": machine(),
              "trees": {name: tree_identity(tree) for name, tree in trees.items()},
              "argvs": rows}
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
