#!/usr/bin/env python3
"""Self-test of the benchmark: its checks must reject corrupted reports.

Runs the jobs the corruptions need once, confirms that their untouched
reports pass every check, then corrupts one field at a time (a changed
Fraction, a shifted atom, a moment off by 10%, unequal worker rows, ...) and
confirms that the check of that job rejects it.  Also confirms that the job
lists reach every CLI subcommand except ``flow``, and that a job whose bytes
differ between passes counts as failed.  Takes about 20 s.

    PYTHONPATH=src FREEPROB_BACKEND=numpy python3 perfbench/selftest.py
"""

import json
import sys
from fractions import Fraction

import freeprob.cli as cli

import checks
import run
import workloads
from passrun import run_cli


def _bump_fraction(report):
    free = report["result"]["free"]
    free[5] = str(Fraction(free[5]) + Fraction(1, 7))


def _ten_percent(report):
    m = report["result"]["moments"]
    m[3] = str(Fraction(m[3]) * Fraction(11, 10))


def _shift_atom(report):
    report["result"]["density"]["atoms"][1][0] += 1e-3


def _stretch_density(report):
    # x -> 1.05 x with the mass kept: m_2 grows by 10%, m_4 by 22%
    d = report["result"]["density"]
    d["support"] = [1.05 * v for v in d["support"]]
    d["samples"] = [v / 1.05 for v in d["samples"]]


def _quadrature_moment(report):
    report["result"]["moments_quadrature"][1] *= 1.1


def _worker_rows(report):
    report["result"]["rows"][0]["empirical"] += 1e-12


def _z_score(report):
    report["result"]["rows"][-1]["z"] = 7.0


def _polya(report):
    report["result"]["return_probability_estimate"] = 0.4


def _terms(report):
    report["result"]["terms"][1][1] += 1


def _weingarten(report):
    report["result"]["value"] = "-105122083863/36472996377170786403"


def _loops(report):
    report["result"]["loops"][40] += 2


def _drop_field(report):
    del report["result"]["coefficients"]


CORRUPTIONS = (
    ("changed Fraction in free cumulants", "cumulants9", _bump_fraction),
    ("moment-route moment off by 10%", "semicircle+bernoulli/moments", _ten_percent),
    ("shifted atom", "point1.5+bernoulli", _shift_atom),
    ("output measure moments off by >10%", "arcsine+arcsine", _stretch_density),
    ("quadrature moment off by 10%", "point1.5+bernoulli", _quadrature_moment),
    ("unequal worker rows", "rotated_diagonal/w2", _worker_rows),
    ("z-score beyond the limit", "gue_gue/w2", _z_score),
    ("return probability out of bounds", "polya3", _polya),
    ("changed Wick count", "wick14", _terms),
    ("changed Weingarten value", "weingarten6", _weingarten),
    ("changed Kesten loop count", "kesten3", _loops),
    ("missing Weingarten coefficients", "weingarten6", _drop_field),
)


def main() -> int:
    failures = []
    reached = {job.argv[0] for jobs in workloads.WORKLOADS.values() for job in jobs}
    if reached != set(cli._COMMANDS) - {"flow"}:
        failures.append(f"job lists reach {sorted(reached)}, want every subcommand but flow")

    by_id = {job.id: job for jobs in workloads.WORKLOADS.values() for job in jobs}
    jobs = list(workloads.EXACT_MC) + [by_id["point1.5+bernoulli"], by_id["arcsine+arcsine"]]
    codes, texts = {}, {}
    for job in jobs:
        codes[job.id], texts[job.id] = run_cli(workloads.argv_for(job, 0))
    expected = checks.load_expected()

    def problems_with(texts_now, codes_now=codes):
        found, _ = checks.judge(jobs, codes_now, texts_now, expected, run_cli, workloads.SAME_ROWS)
        return found

    clean = problems_with(texts)
    for job_id, found in clean.items():
        if found:
            failures.append(f"untouched {job_id} fails: {found}")

    for what, job_id, corrupt in CORRUPTIONS:
        report = json.loads(texts[job_id])
        corrupt(report)
        found = problems_with({**texts, job_id: json.dumps(report)})[job_id]
        print(f"{'rejected' if found else 'ACCEPTED'}: {what} ({job_id}): {found}")
        if not found:
            failures.append(f"{what} was accepted")

    found = problems_with(texts, {**codes, "kesten3": 3})["kesten3"]
    if not found:
        failures.append("a non-zero exit code was accepted")

    passes = [{"problems": clean, "digests": {"wick14": "a"}},
              {"problems": clean, "digests": {"wick14": "b"}}]
    attempted, failed, _ = run.failures(passes)
    if failed != 2:
        failures.append(f"bytes that differ between passes gave {failed} failures, want 2")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
