#!/usr/bin/env python3
"""Freeze the exact jobs' output fields into ``expected.json``.

Run only at a commit whose exact outputs are trusted; the output checks then
hold every later commit to them, field by field:

    PYTHONPATH=src python3 perfbench/freeze.py
"""

import json

import checks
import workloads
from passrun import run_cli

# job id -> the fields of its report's "result" that must never change
FROZEN_FIELDS = {
    "cumulants9": ("classical", "free"),
    "wick14": ("terms",),
    "weingarten6": ("coefficients", "value"),
    "kesten3": ("loops",),
    "semicircle+bernoulli/moments": ("moments",),
    "semicircle+bernoulli/both": ("moments",),
}


def main():
    jobs = {job.id: job for jobs in workloads.WORKLOADS.values() for job in jobs}
    expected = {}
    for job_id, fields in FROZEN_FIELDS.items():
        code, text = run_cli(workloads.argv_for(jobs[job_id], 0))
        if code != 0:
            raise SystemExit(f"{job_id} exited {code}")
        result = json.loads(text)["result"]
        expected[job_id] = {field: result[field] for field in fields}
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
