"""The benchmark's workloads: fixed lists of CLI jobs, run one after another.

Each job is an argv for ``freeprob.cli.run`` plus the name of the output
check that judges its report (see ``checks.py``).  ``{seed}`` in an argv is
replaced by the workload seed; only the Monte Carlo jobs take one, the
deterministic jobs ignore it.

``flow`` is deliberately absent: its output table is due to change shape, so
a correct change to it would read as a regression here.
"""

from __future__ import annotations

from typing import NamedTuple


class Job(NamedTuple):
    id: str
    argv: tuple
    check: str


def _freeconv(x: str, y: str, *rest: str) -> tuple:
    return ("freeconv", "--law-x", x, "--law-y", y) + rest


# Inputs with densities: every G evaluation sums over all grid cells, so the
# Cauchy kernel and the per-point solve dominate.
ANALYTIC_DENSITY = (
    Job("arcsine+arcsine",
        _freeconv("arcsine", "arcsine", "--route", "analytic", "--grid-size", "64"),
        "analytic"),
    Job("mp1+bernoulli",
        _freeconv("marchenko_pastur:lam=1", "bernoulli",
                  "--route", "analytic", "--grid-size", "64"),
        "analytic"),
    Job("semicircle+bernoulli/both",
        _freeconv("semicircle", "bernoulli",
                  "--route", "both", "--order", "8", "--grid-size", "64"),
        "analytic"),
)

# Inputs made only of atoms: each G evaluation is a few divisions, so the
# solver's step count and per-call overhead set the time; the output of the
# second job has atoms, which exercises atom detection in the inversion.
ANALYTIC_ATOMS = (
    Job("bernoulli+bernoulli",
        _freeconv("bernoulli", "bernoulli", "--route", "analytic", "--grid-size", "256"),
        "analytic"),
    Job("point1.5+bernoulli",
        _freeconv("point:c=1.5", "bernoulli", "--route", "analytic", "--grid-size", "128"),
        "analytic"),
)

# No numerical solve: Fraction and bigint recursions, enumerations and
# BLAS-bound Monte Carlo.
EXACT_MC = (
    Job("cumulants9",
        ("cumulants", "--moments", "1,2,3,4,5,6,7,8,9", "--lattice", "both"), "exact"),
    Job("wick14", ("wick", "--n", "14"), "exact"),
    Job("weingarten6", ("weingarten", "--perm", "2,3,4,5,6,1", "--N", "9"), "exact"),
    Job("kesten3", ("kesten", "--d", "3", "--nmax", "120"), "exact"),
    Job("polya3", ("polya", "--d", "3", "--nmax", "5000"), "polya"),
    Job("semicircle+bernoulli/moments",
        _freeconv("semicircle", "bernoulli", "--route", "moments", "--order", "40"), "exact"),
    Job("rotated_diagonal/w1",
        ("rmt", "--kind", "rotated_diagonal", "--N", "200", "--trials", "20",
         "--workers", "1", "--seed", "{seed}"), "rmt"),
    Job("rotated_diagonal/w2",
        ("rmt", "--kind", "rotated_diagonal", "--N", "200", "--trials", "20",
         "--workers", "2", "--seed", "{seed}"), "rmt"),
    Job("gue_gue/w2",
        ("rmt", "--kind", "gue_gue", "--N", "200", "--trials", "20", "--degree", "6",
         "--workers", "2", "--seed", "{seed}"), "rmt"),
)

WORKLOADS = {
    "analytic_density": ANALYTIC_DENSITY,
    "analytic_atoms": ANALYTIC_ATOMS,
    "exact_mc": EXACT_MC,
}

# Jobs whose reports must agree row for row: the worker count may not change
# a Monte Carlo estimate.
SAME_ROWS = (("rotated_diagonal/w1", "rotated_diagonal/w2"),)


def argv_for(job: Job, seed: int) -> list:
    return [a.replace("{seed}", str(seed)) for a in job.argv]
