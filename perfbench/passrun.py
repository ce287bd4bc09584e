"""One pass of a workload's job list, in a fresh interpreter.

Started by ``run.py`` once per pass, so every pass pays what a CLI user pays
on each call: the import, and the caches that the library fills on first use
(e.g. the partition tables behind ``cumulants``).  There is no warm-up job.
The jobs run in-process through ``freeprob.cli.run``, one after another.
Each pass samples the machine's speed while it runs (``speed.py``) and
reports its times both as measured and divided by its slowdown; the time
spent sampling is taken out of both (a traced pass's spans keep it).  The
outputs are checked after the timed region.  The last line of stdout is one
JSON record of the pass.

    python3 perfbench/passrun.py --workload exact_mc --seed 1 --trace 0 --spans FILE
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time

import numpy as np

import freeprob.cli as cli
from freeprob import _kernels

import checks
import speed
import tracing
import workloads


def run_cli(argv) -> tuple:
    """(exit code, stdout text) of one CLI call, stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = parser.parse_args()
    jobs = workloads.WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    probe = speed.SpeedProbe()
    if tracer:
        tracer.install()
    probe.start()
    codes, texts, seconds = {}, {}, {}
    start, spent0 = time.perf_counter(), probe.spent
    for job in jobs:
        argv = workloads.argv_for(job, args.seed)
        t0, spent = time.perf_counter(), probe.spent
        if tracer:
            tracer.job = job.id
            span = tracer.begin("cli.run")
        try:
            codes[job.id], texts[job.id] = run_cli(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            codes[job.id], texts[job.id] = f"raised {exc!r}", ""
        finally:
            if tracer:
                tracer.end(span)
        seconds[job.id] = time.perf_counter() - t0 - (probe.spent - spent)
    wall_s = time.perf_counter() - start - (probe.spent - spent0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()
    if tracer:
        tracer.restore()
        if args.spans:
            tracer.write(args.spans)

    problems, moment_err = checks.judge(
        jobs, codes, texts, checks.load_expected(), run_cli, workloads.SAME_ROWS)
    layers = None
    if tracer:
        reports = {}
        for job_id, text in texts.items():
            with contextlib.suppress(ValueError):
                reports[job_id] = json.loads(text)
        layers = tracing.layer_metrics(tracer, reports)

    job_geomean_s = math.exp(sum(math.log(t) for t in seconds.values()) / len(seconds))
    slowdown = probe.slowdown()
    record = {
        "wall_s": wall_s,
        "job_s": seconds,
        "job_geomean_s": job_geomean_s,
        "slowdown": slowdown,
        "speed_samples": len(probe.samples),
        "wall_norm_s": wall_s / slowdown,
        "job_geomean_norm_s": job_geomean_s / slowdown,
        "peak_rss_mb": peak_rss_mb,
        "moment_err": moment_err,
        "codes": codes,
        "problems": problems,
        "digests": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()},
        "layers": layers,
        "backend": _kernels.BACKEND,
        "freeprob_file": cli.__file__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
