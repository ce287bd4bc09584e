#!/usr/bin/env python3
"""freeprob benchmark: CLI job lists run end to end, with a traced per-layer run.

    python3 perfbench/run.py --workload analytic_density --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0   # every workload

Run from anywhere; the program is imported from ``src/`` next to this
directory, with the numpy kernels (``FREEPROB_BACKEND=numpy``) and BLAS held to
``nproc // 2`` threads so that the ``--workers 2`` jobs do not oversubscribe
the cores.

One caller runs a workload's jobs one after another (a closed loop).  Each
pass of the job list runs in a fresh interpreter (``passrun.py``); passes
repeat while another one would end no more than ``OVERRUN`` past
``--seconds``.  Times and memory are medians over passes; ``moment_err`` is
deterministic and taken as its largest value.  Set-up is measured apart from
the passes, as the median time to ``import freeprob.cli`` in
``SETUP_IMPORTS`` fresh interpreters.

The host's speed drifts by tens of percent over seconds to minutes, so every
gated time is divided by the slowdown sampled where it was measured (see
``speed.py``), i.e. it is the time on a machine of the reference speed:
``wall_norm_s`` and ``job_geomean_norm_s`` are each pass's ``wall_s`` and
``job_geomean_s`` divided by that pass's slowdown, and ``setup_s`` is each
import time divided by the slowdown sampled right after it.  The times as
measured (``wall_s``, ``job_geomean_s``, ``setup_raw_s``) are printed beside
them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics, including the
tracing overhead (the difference of their ``wall_norm_s``).  A layer that a
workload never reaches reads zero there.  Every job's output is checked in
every pass (``checks.py``), and a job whose output bytes differ between
passes of one run fails.
Human-readable lines go first; the last line of stdout is the JSON result.
Spans and the run record are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_IMPORTS = 7
SETUP_SPEED_SAMPLES = 20
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end well within 180 s
OVERRUN = 0.1

UNITS = {
    "wall_norm_s": "s", "job_geomean_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "moment_err": "rel", "wall_s": "s", "job_geomean_s": "s", "setup_raw_s": "s",
    "slowdown": "ratio", "failed_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FREEPROB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["FREEPROB_BACKEND"] = "numpy"
    threads = str(max(1, (os.cpu_count() or 1) // 2))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list, env: dict, deadline: float) -> str:
    """Stdout of a child interpreter; raises BenchError on failure or timeout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        done = subprocess.run([sys.executable] + argv, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:2]} ran past the {RUN_LIMIT_S:.0f} s limit")
    if done.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def measure_setup(env: dict, deadline: float) -> tuple:
    """Median import time of ``freeprob.cli`` over fresh interpreters, as
    measured and divided by the slowdown sampled right after each import
    (``speed`` is imported after the timed import, so it preloads nothing)."""
    code = ("import time; t = time.perf_counter(); import freeprob.cli; "
            "dt = time.perf_counter() - t; import speed; p = speed.SpeedProbe(); "
            f"[p.sample() for _ in range({SETUP_SPEED_SAMPLES})]; "
            "print(repr(dt), repr(p.slowdown()))")
    raw, norm = [], []
    for _ in range(SETUP_IMPORTS):
        dt, slowdown = map(float, run_child(["-c", code], env, deadline).split()[-2:])
        raw.append(dt)
        norm.append(dt / slowdown)
    return statistics.median(raw), statistics.median(norm)


def run_pass(workload: str, args, traced: bool, index: int, env: dict, deadline: float) -> dict:
    argv = [str(HERE / "passrun.py"), "--workload", workload, "--seed", str(args.seed),
            "--trace", str(int(traced))]
    if traced:
        argv += ["--spans", str(OUT / f"spans-{workload}-seed{args.seed}-pass{index}.jsonl")]
    record = json.loads(run_child(argv, env, deadline).splitlines()[-1])
    where = Path(record["freeprob_file"]).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"freeprob was imported from {where}, not from {SRC}")
    if record["backend"] != "numpy":
        raise BenchError(f"kernel backend is {record['backend']!r}, not numpy")
    record["traced"] = traced
    return record


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "freeprob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def failures(passes: list) -> tuple:
    """(attempted, failed, reasons): a job fails in a pass when it exits
    non-zero or fails a check, and in every pass when its bytes differ
    between passes."""
    digests: dict = {}
    for p in passes:
        for job_id, d in p["digests"].items():
            digests.setdefault(job_id, set()).add(d)
    unstable = {job_id for job_id, ds in digests.items() if len(ds) > 1}
    attempted, failed, reasons = 0, 0, []
    for i, p in enumerate(passes):
        for job_id, found in p["problems"].items():
            attempted += 1
            if job_id in unstable:
                found = found + ["output bytes differ between passes"]
            if found:
                failed += 1
                reasons.append(f"pass {i} {job_id}: {'; '.join(found)}")
    return attempted, failed, reasons


def median_of(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(passes: list, setup_s: float) -> dict:
    return {
        "wall_norm_s": median_of(passes, "wall_norm_s"),
        "job_geomean_norm_s": median_of(passes, "job_geomean_norm_s"),
        "setup_s": setup_s,
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        "moment_err": max(p["moment_err"] for p in passes),
    }


def per_layer(plain: list, traced: list) -> dict:
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    speedups = [p["job_s"]["rotated_diagonal/w1"] / p["job_s"]["rotated_diagonal/w2"]
                for p in plain if "rotated_diagonal/w1" in p["job_s"]]
    layers["rmt.workers2_speedup"] = statistics.median(speedups) if speedups else 0.0
    layers["trace.overhead_s"] = median_of(traced, "wall_norm_s") - median_of(plain, "wall_norm_s")
    return layers


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_speedup") or name.endswith("_per_call") or name.endswith("_per_point"):
        return "ratio"
    if name.endswith("worst_residual"):
        return "abs"
    return "count"


def as_number(value, unit: str):
    """Counts print as integers.  JSON has no infinity or NaN, so a
    non-finite value (only an error can be one) is reported as 1e300."""
    value = float(value)
    if not math.isfinite(value):
        return 1e300
    return int(value) if unit == "count" and value.is_integer() else value


def bench(workload: str, args) -> int:
    """Measure one workload and print its result; returns the exit code."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    try:
        setup_raw_s, setup_s = measure_setup(env, deadline)
        unit = (False, True) if args.trace else (False,)
        passes = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            for traced in unit:
                passes.append(run_pass(workload, args, traced, len(passes), env, deadline))
            took = time.monotonic() - t0
            # stop when another unit of the same length would end more than
            # OVERRUN past --seconds, or past the run's limit
            if (time.monotonic() - start + took > (1.0 + OVERRUN) * args.seconds
                    or time.monotonic() + took >= deadline):
                break
    except BenchError as exc:
        print(f"benchmark: {workload}: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failed, reasons = failures(passes)
    if args.trace:
        metrics = per_layer(plain, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(plain, setup_s)
        units = {name: UNITS[name] for name in metrics}

    first = passes[0]
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plain_passes": len(plain), "traced_passes": len(traced),
        **source_identity(),
        "nproc": os.cpu_count(), "python": first["python"], "numpy": first["numpy"],
        "backend": first["backend"], "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }
    with open(OUT / f"run-{workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "metrics": metrics, "failures": reasons, "passes": passes},
                  fh, indent=1)

    print("# " + json.dumps(record))
    for reason in reasons:
        print(f"# FAILED {reason}")
    rows = dict(metrics)
    if not args.trace:
        for name in ("wall_s", "job_geomean_s", "slowdown"):
            rows[name] = median_of(plain, name)
        rows["setup_raw_s"] = setup_raw_s
        rows["failed_frac"] = failed / attempted
        units.update((name, UNITS[name]) for name in rows)
    for name, value in rows.items():
        print(f"{workload:<18} {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": as_number(value, units[name]), "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "freeprob" / "cli.py").is_file():
        print(f"benchmark: no program to measure at {SRC / 'freeprob'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max(bench(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
