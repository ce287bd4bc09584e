"""Output checks for the benchmark's jobs.

Checks read named fields of a report, never the whole report, so fields that
later versions add to ``result`` or ``diagnostics`` do not break them.

* ``exact``: every frozen field in ``expected.json`` (cumulant lists, Wick
  terms, Weingarten coefficients and value, Kesten loops, moment-route
  moments) must match exactly, plus closed-form cross-checks.
* ``analytic``: the output measure rebuilt from the report's ``density``
  payload must be a probability measure whose first four moments lie within
  ``OUTPUT_MOMENT_TOL`` of the exact moment route, its atoms must be those in
  ``EXPECTED_ATOMS`` (none for the other jobs), and ``moments_quadrature``
  must match the exact route to ``QUADRATURE_MOMENT_TOL``.
* ``polya``: the bounds of the CLI test for the same subcommand.
* ``rmt``: every |z| < ``Z_LIMIT``; rows of jobs in ``SAME_ROWS`` identical.

Relative errors are |a - b| / max(1, |b|).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

OUTPUT_MOMENT_ORDER = 4
OUTPUT_MOMENT_TOL = 0.1
QUADRATURE_MOMENT_TOL = 5e-3
ATOM_TOL = 1e-4
MASS_TOL = 1e-6
Z_LIMIT = 6.0

# point(1.5) boxplus bernoulli is (delta_0.5 + delta_2.5) / 2
EXPECTED_ATOMS = {"point1.5+bernoulli": [(0.5, 0.5), (2.5, 0.5)]}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def rel_err(a: float, b: float) -> float:
    err = abs(a - b) / max(1.0, abs(b))
    return err if math.isfinite(err) else math.inf


def exact_moments_argv(job, order: int) -> list:
    """The CLI's exact moment route on the laws of an analytic job."""
    return list(job.argv[:5]) + ["--route", "moments", "--order", str(order)]


def output_measure(report: dict):
    from freeprob.measures import Measure

    d = report["result"]["density"]
    return Measure(
        atoms=tuple(tuple(a) for a in d["atoms"]),
        support=tuple(d["support"]) if "support" in d else None,
        samples=d.get("samples"),
        edges=tuple(d.get("edges", ("regular", "regular"))),
        normalize=False,
    )


def moment_error(mu, exact: list) -> float:
    """Largest relative error of m_1..m_4 of the measure mu."""
    from freeprob.measures import moments

    got = moments(mu, OUTPUT_MOMENT_ORDER)
    return max(rel_err(float(g), float(e)) for g, e in zip(got, exact))


# -- per-check judges: each returns a list of problems, empty when fine -----


def _closed_forms(job_id: str, result: dict) -> list:
    problems = []

    def need(cond: bool, what: str):
        if not cond:
            problems.append(f"closed form: {what}")

    if job_id == "cumulants9":
        c = [Fraction(v) for v in result["classical"]]
        k = [Fraction(v) for v in result["free"]]
        # moments 1, 2, 3, 4: both lattices agree to order 3, then split
        need(c[:3] == [1, 1, -1] and k[:3] == [1, 1, -1], "c_1..c_3 = kappa_1..kappa_3 = 1, 1, -1")
        need(c[3] == -2 and k[3] == -1, "c_4 = -2, kappa_4 = -1")
    elif job_id == "wick14":
        terms = dict((r, n) for r, n in result["terms"])
        need(terms.get(0) == 429, "genus 0 has Catalan(7) = 429 pairings")
        need(sum(terms.values()) == 135135, "13!! = 135135 pairings in all")
    elif job_id == "weingarten6":
        need(result["coefficients"][0] == 42, "minimal factorizations of a 6-cycle: Catalan(5)")
        need(result["leading"] == -42, "leading weight (-1)^5 Catalan(5)")
    elif job_id == "kesten3":
        loops = result["loops"]
        need(loops[:5] == [1, 0, 6, 0, 66], "loops of the 6-regular tree: 1, 0, 6, 0, 66")
        need(all(v == 0 for v in loops[1::2]), "odd loop counts vanish")
    elif job_id.endswith("/moments") or job_id.endswith("/both"):
        m = [Fraction(v) for v in result["moments"]]
        # free cumulants add: kappa_2 = 1 + 1, kappa_4 = -1, so m_4 = -1 + 2*2^2
        need(m[:4] == [0, 2, 0, 7], "semicircle + bernoulli: m_1..m_4 = 0, 2, 0, 7")
    return problems


def check_exact(job, report: dict, expected: dict) -> list:
    result = report["result"]
    problems = []
    for field, want in expected[job.id].items():
        if result.get(field) != want:
            problems.append(f"{field} differs from the frozen value")
    return problems + _closed_forms(job.id, result)


def check_analytic(job, report: dict, expected: dict, exact: list) -> tuple:
    """(problems, output-moment error); ``exact`` holds the exact route's
    moments m_1..m_6 as Fractions."""
    result = report["result"]
    try:
        mu = output_measure(report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"density payload is not a measure: {exc}"], math.inf
    problems = []
    if abs(mu.total_mass() - 1.0) > MASS_TOL:
        problems.append(f"output mass {mu.total_mass()!r} is not 1")
    err = moment_error(mu, exact[:OUTPUT_MOMENT_ORDER])
    if not err <= OUTPUT_MOMENT_TOL:
        problems.append(f"output moments off by {err:.3g} > {OUTPUT_MOMENT_TOL}")
    quad = result.get("moments_quadrature", [])
    if len(quad) != len(exact):
        problems.append(f"moments_quadrature has {len(quad)} entries, want {len(exact)}")
    elif not all(rel_err(q, float(e)) <= QUADRATURE_MOMENT_TOL for q, e in zip(quad, exact)):
        problems.append("moments_quadrature disagrees with the exact route")
    want_atoms = EXPECTED_ATOMS.get(job.id, [])
    got_atoms = sorted(mu.atoms)
    if len(got_atoms) != len(want_atoms) or any(
        abs(g[0] - w[0]) > ATOM_TOL or abs(g[1] - w[1]) > ATOM_TOL
        for g, w in zip(got_atoms, want_atoms)
    ):
        problems.append(f"atoms {got_atoms} differ from {want_atoms}")
    if job.id in expected:
        problems += check_exact(job, report, expected)
    return problems, err


def check_polya(report: dict) -> list:
    r = report["result"]
    problems = []
    if not abs(r["decay_exponent"] + 1.5) < 0.1:
        problems.append(f"decay exponent {r['decay_exponent']!r} is not -3/2 within 0.1")
    if not 0.3 < r["return_probability_estimate"] < 0.36:
        problems.append(f"return probability {r['return_probability_estimate']!r} outside (0.3, 0.36)")
    return problems


def check_rmt(report: dict) -> list:
    rows = report["result"]["rows"]
    if not rows:
        return ["no rows"]
    bad = [r["label"] for r in rows if not abs(r["z"]) < Z_LIMIT]
    return [f"|z| >= {Z_LIMIT} on rows {bad}"] if bad else []


def check_same_rows(a: dict, b: dict) -> list:
    if a["result"]["rows"] != b["result"]["rows"]:
        return ["rows differ with the worker count"]
    return []


def judge(jobs, codes: dict, texts: dict, expected: dict, run_cli, same_rows=()) -> tuple:
    """Check one pass.  Returns ({job id: problems}, moment_err).

    ``run_cli(argv) -> (exit code, stdout text)`` runs the CLI to get the
    exact moments the analytic jobs are measured against.  ``moment_err`` is
    the largest output-moment error over the pass, floored at the double
    precision epsilon that a float comparison can resolve (a pass whose only
    moments come from the exact route reads the floor).
    """
    problems = {}
    reports = {}
    moment_err = sys.float_info.epsilon
    for job in jobs:
        if codes[job.id] != 0:
            problems[job.id] = [f"exit code {codes[job.id]}"]
            continue
        try:
            report = reports[job.id] = json.loads(texts[job.id])
            if job.check == "exact":
                found = check_exact(job, report, expected)
            elif job.check == "analytic":
                code, text = run_cli(exact_moments_argv(job, 6))
                if code != 0:
                    raise ValueError(f"exact moment route exited {code}")
                exact = [Fraction(v) for v in json.loads(text)["result"]["moments"]]
                found, err = check_analytic(job, report, expected, exact)
                moment_err = max(moment_err, err)
            elif job.check == "polya":
                found = check_polya(report)
            elif job.check == "rmt":
                found = check_rmt(report)
            else:
                raise ValueError(f"unknown check {job.check!r}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"malformed report: {exc!r}"]
        problems[job.id] = found
    for a, b in same_rows:
        if a in reports and b in reports:
            found = check_same_rows(reports[a], reports[b])
            problems[a] += found
            problems[b] += found
    return problems, moment_err
