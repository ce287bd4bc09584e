"""End-to-end runs of the command-line interface."""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import freeprob
import freeprob.cli as cli
from freeprob import _kernels, measures
from freeprob.freeconv import ContinuationError, free_convolve_moments


def run_json(capsys, argv):
    rc = cli.run(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_kesten_envelope(capsys):
    doc = run_json(capsys, ["kesten", "--d", "2", "--nmax", "8"])
    assert set(doc) == {"config", "result", "diagnostics"}
    assert doc["config"] == {
        "command": "kesten",
        "d": 2,
        "nmax": 8,
        "seed": 0,
        "output": "-",
        "format": "json",
    }
    assert doc["result"]["loops"] == [1, 0, 4, 0, 28, 0, 232, 0, 2092]
    assert doc["result"]["provenance"] == "exact"
    assert abs(doc["diagnostics"]["decay_base"] - 0.8639468332192504) < 1e-12


def test_cumulants_rationals_as_strings(capsys):
    doc = run_json(capsys, ["cumulants", "--moments", "1/3,2,5", "--lattice", "both"])
    assert doc["result"]["classical"] == ["1/3", "17/9", "83/27"]
    assert doc["result"]["free"] == ["1/3", "17/9", "83/27"]


def test_graph_moments_cumulants_from_file(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1,2,8,64,1024\n")
    doc = run_json(capsys, ["cumulants", "--moments", f"@{f}", "--lattice", "both"])
    assert doc["result"]["classical"] == ["1", "1", "4", "38", "728"]
    assert doc["result"]["free"] == ["1", "1", "4", "39", "748"]


def test_freeconv_moment_route(capsys):
    doc = run_json(
        capsys,
        ["freeconv", "--law-x", "bernoulli", "--law-y", "bernoulli",
         "--route", "moments", "--order", "6"],
    )
    assert doc["result"]["moments"] == ["0", "2", "0", "6", "0", "20"]
    assert doc["result"]["moments_provenance"] == "exact"


def test_freeconv_both_routes_agree(capsys):
    doc = run_json(
        capsys,
        ["freeconv", "--law-x", "bernoulli", "--law-y", "bernoulli",
         "--route", "both", "--order", "4", "--grid-size", "128"],
    )
    assert float(doc["diagnostics"]["route_agreement"]) < 1e-5
    assert doc["diagnostics"]["continuation_residual"] < 1e-7


NAMED_LAWS = (
    "semicircle",
    "arcsine",
    "bernoulli",
    "marchenko_pastur:lam=0.5",
    "marchenko_pastur:lam=1",
    "sato_tate",
    "point:c=1.5",
)


@pytest.mark.parametrize(
    "law_x,law_y", list(itertools.combinations_with_replacement(NAMED_LAWS, 2)))
def test_freeconv_every_named_pair_converges(capsys, law_x, law_y):
    doc = run_json(
        capsys,
        ["freeconv", "--law-x", law_x, "--law-y", law_y,
         "--route", "analytic", "--grid-size", "128"],
    )
    assert doc["diagnostics"]["continuation_residual"] < 1e-8


def test_freeconv_csv_density(capsys):
    rc = cli.run(
        ["freeconv", "--law-x", "bernoulli", "--law-y", "bernoulli",
         "--route", "analytic", "--grid-size", "64", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    header = [l for l in lines if l.startswith("# ")]
    assert "# command=freeconv" in header
    assert "# grid-size=64" in header
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "t,density"
    assert len(body) == 66  # column row + 64 grid rows + trailing moment row? no: grid only

def test_freeconv_requires_one_source_per_side(capsys):
    rc = cli.run(["freeconv", "--route", "moments", "--moments-y", "0,1"])
    assert rc == 2
    rc = cli.run(
        ["freeconv", "--law-x", "bernoulli", "--moments-x", "0,1",
         "--law-y", "bernoulli"]
    )
    assert rc == 2


def test_wick_pretty_rendering(capsys):
    doc = run_json(capsys, ["wick", "--n", "4"])
    assert doc["result"]["terms"] == [[0, 2], [2, 1]]
    assert doc["result"]["pretty"] == "2 + N^-2"
    assert doc["diagnostics"]["pairings"] == 3


def test_wick_rejects_csv_and_large_n(capsys):
    assert cli.run(["wick", "--n", "4", "--format", "csv"]) == 2
    capsys.readouterr()
    assert cli.run(["wick", "--n", "18"]) == 2


def test_weingarten_exact_value(capsys):
    doc = run_json(capsys, ["weingarten", "--perm", "2,1", "--N", "10"])
    assert doc["result"]["value"] == "-1/990"
    assert doc["result"]["value_is_exact"] is True
    assert doc["result"]["leading"] == -1


def test_weingarten_truncated_value_reports_bound(capsys):
    doc = run_json(capsys, ["weingarten", "--perm", "2,3,1", "--N", "8"])
    assert doc["result"]["value_is_exact"] is False
    assert doc["result"]["provenance"] == "quadrature"
    assert 0 < doc["diagnostics"]["error_bound"] < 1e-6


def test_polya_return_estimate(capsys):
    doc = run_json(capsys, ["polya", "--d", "3", "--nmax", "400"])
    r = doc["result"]
    assert abs(r["decay_exponent"] + 1.5) < 0.1
    assert 0.3 < r["return_probability_estimate"] < 0.36
    low_d = run_json(capsys, ["polya", "--d", "1", "--nmax", "400"])
    assert low_d["result"]["return_probability_estimate"] is None


def test_flow_ratio_table(capsys):
    doc = run_json(capsys, ["flow", "--law", "semicircle", "--z", "2i", "--h", "0.04"])
    rows = doc["result"]["rows"]
    assert len(rows) >= 2
    ratios = doc["result"]["ratios"]
    assert all(r > 3.5 for r in ratios)


def test_flow_continuation_failure_exits_three(capsys, monkeypatch):
    def boom(*a, **k):
        raise ContinuationError("ladder stalled", z=2j)

    monkeypatch.setattr(cli.freeconv, "semicircle_flow_residual", boom)
    rc = cli.run(["flow", "--law", "semicircle", "--z", "2i", "--h", "0.04"])
    assert rc == 3
    assert "ladder stalled" in capsys.readouterr().err


def test_rmt_json_run(capsys):
    doc = run_json(
        capsys,
        ["rmt", "--kind", "gue_deterministic", "--N", "24", "--trials", "12",
         "--degree", "4", "--seed", "5"],
    )
    rows = {r["label"]: r for r in doc["result"]["rows"]}
    assert rows["m2"]["predicted"] == 2
    assert rows["m4"]["predicted"] == 7
    assert doc["result"]["max_abs_z"] < 6
    assert doc["result"]["provenance"] == "monte-carlo"


def test_rmt_csv_run(capsys):
    rc = cli.run(
        ["rmt", "--kind", "gue_gue", "--N", "16", "--trials", "6", "--degree", "2",
         "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0] == "label,empirical,stderr,predicted,z"
    assert [row.split(",")[0] for row in body[1:]] == ["xx", "xy", "yx", "yy"]


def test_rmt_workers_do_not_change_numbers(capsys):
    base = ["rmt", "--kind", "gue_gue", "--N", "20", "--trials", "8", "--degree", "2"]
    one = run_json(capsys, base + ["--workers", "1"])
    four = run_json(capsys, base + ["--workers", "4"])
    assert one["result"] == four["result"]


def test_same_argv_is_byte_identical(capsys):
    argv = ["rmt", "--kind", "rotated_diagonal", "--N", "20", "--trials", "6",
            "--degree", "4", "--seed", "9"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_seed_precedence_env_config_flag(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\n")
    monkeypatch.setenv("FREEPROB_SEED", "42")
    doc = run_json(capsys, ["kesten", "--d", "2", "--nmax", "4"])
    assert doc["config"]["seed"] == 42
    doc = run_json(capsys, ["kesten", "--d", "2", "--nmax", "4", "--config", str(cfg)])
    assert doc["config"]["seed"] == 7
    doc = run_json(
        capsys,
        ["kesten", "--d", "2", "--nmax", "4", "--config", str(cfg), "--seed", "3"],
    )
    assert doc["config"]["seed"] == 3


def test_malformed_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FREEPROB_SEED", "notanint")
    assert cli.run(["kesten", "--d", "2", "--nmax", "4"]) == 2


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    rc = cli.run(["kesten", "--d", "2", "--nmax", "4", "--output", str(dest)])
    assert rc == 0
    doc = json.loads(dest.read_text())
    assert doc["result"]["loops"] == [1, 0, 4, 0, 28]


def test_floats_carry_seventeen_digits(capsys):
    rc = cli.run(["kesten", "--d", "2", "--nmax", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.86394683321925037" in out


def test_usage_errors(capsys):
    assert cli.run([]) == 2
    assert cli.run(["eigenvalues"]) == 2
    assert cli.run(["kesten", "--d", "2"]) == 2  # missing --nmax
    assert cli.run(["kesten", "--d", "0", "--nmax", "4"]) == 2  # bad value
    assert cli.run(["polya", "--d", "1", "--nmax", "50"]) == 2  # below floor
    assert cli.run(["flow", "--h", "0.02,0.01"]) == 2  # one step, not a list


def test_python_dash_m_matches_cli_run(capsys):
    assert cli.run(["wick", "--n", "4"]) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeprob.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "freeprob", "wick", "--n", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_zero_density_with_missing_mass_is_a_numerical_failure(capsys):
    # at eta = 0.1 the inversion finds the two atoms of point(1.5) boxplus
    # Bernoulli but blanks the density, so part of the unit mass is lost
    argv = ["freeconv", "--law-x", "point:c=1.5", "--law-y", "bernoulli",
            "--route", "analytic", "--grid-size", "128", "--eta", "0.1"]
    assert cli.run(argv) == 3
    assert "mass 0.00124 is missing" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(freeprob.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, freeprob.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["freeconv", "--law-x", "point:c=inf", "--law-y", "bernoulli", "--route", "moments"],
    ["flow", "--law", "point:c=nan"],
    ["freeconv", "--law-x", "point:c=inf", "--law-y", "bernoulli", "--route", "analytic"],
])
def test_non_finite_law_parameter_is_a_usage_error(capsys, argv):
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "bad law" in err
    assert "Traceback" not in err


def test_law_parameters_have_one_spelling(capsys):
    argv = ["freeconv", "--law-x", "marchenko_pastur:λ=0.5", "--law-y", "bernoulli",
            "--route", "both", "--order", "4", "--grid-size", "256"]
    assert cli.run(argv) == 2
    assert "unexpected parameters" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["moments", "analytic", "both"])
def test_radius_that_squares_to_zero_is_a_usage_error(capsys, route):
    argv = ["freeconv", "--law-x", "semicircle:r=1e-300", "--law-y", "bernoulli",
            "--route", route]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "must lie in [1e-100, 1e+100]" in err
    assert "Traceback" not in err


def test_route_agreement_beyond_the_float_range_reads_infinity(capsys):
    # the exact m2 is 2.5e199 and m4 does not fit a float
    argv = ["freeconv", "--law-x", "semicircle:r=1e100", "--law-y", "bernoulli",
            "--route", "both", "--grid-size", "128"]
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    assert doc["diagnostics"]["route_agreement"] == "Infinity"
    # the float recursion cannot determine m4..m6: they read null, not "NaN"
    assert "NaN" not in doc["result"]["moments_quadrature"]
    assert doc["result"]["moments_quadrature"][3:] == [None, None, None]


@pytest.mark.parametrize("route,code", [("analytic", 2), ("both", 2), ("moments", 0)])
def test_marchenko_pastur_too_narrow_for_its_grid(capsys, route, code):
    # at lam = 1e30 the support is a few float spacings wide around 1e30, so
    # only the routes that build its cell density fail
    argv = ["freeconv", "--law-x", "marchenko_pastur:lam=1e30", "--law-y", "bernoulli",
            "--route", route, "--grid-size", "256"]
    assert cli.run(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("too narrow" in err) == (code == 2)


def test_point_mass_far_from_zero_runs_at_the_default_grid(capsys):
    # the output support is narrow next to its distance from 0, so its grid
    # cells round unevenly, yet they still carry the whole mass
    doc = run_json(capsys, ["freeconv", "--law-x", "point:c=1e6", "--law-y", "semicircle",
                            "--route", "analytic"])
    assert doc["diagnostics"]["output_moment_error"] < 1e-8


@pytest.mark.parametrize("law_y", ["semicircle", "sato_tate"])
def test_moment_file_enters_the_moment_route_as_its_law(capsys, tmp_path, law_y):
    path = tmp_path / "bernoulli.txt"
    path.write_text("0, 1, 0, 1, 0, 1, 0, 1\n")
    by_file = run_json(capsys, ["freeconv", "--moments-x", f"@{path}", "--law-y", law_y,
                                "--route", "moments"])
    by_law = run_json(capsys, ["freeconv", "--law-x", "bernoulli", "--law-y", law_y,
                               "--route", "moments"])
    assert by_file["result"] == by_law["result"]


@pytest.mark.parametrize("sources,route", [
    (["--law-x", "bernoulli", "--law-y", "bernoulli"], "moments"),
    (["--law-x", "sato_tate", "--law-y", "bernoulli"], "moments"),
    (["--moments-x", "0,1", "--moments-y", "0,1"], "moments"),
    (["--law-x", "bernoulli", "--law-y", "bernoulli"], "both"),
    (["--law-x", "bernoulli", "--law-y", "bernoulli"], "analytic"),
])
def test_order_below_one_is_a_usage_error(capsys, sources, route):
    argv = ["freeconv", *sources, "--route", route, "--order", "0", "--grid-size", "64"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order must be at least 1, got 0" in captured.err


@pytest.mark.parametrize(
    "law_x,law_y", list(itertools.combinations_with_replacement(NAMED_LAWS, 2)))
def test_moment_route_equals_extracted_cumulants(capsys, law_x, law_y):
    doc = run_json(capsys, ["freeconv", "--law-x", law_x, "--law-y", law_y,
                            "--route", "moments", "--order", "12"])
    sides = [cli._parse_law(text) for text in (law_x, law_y)]
    mx, my = [measures.named_moments(tag, 12, **params) for tag, params in sides]
    if mx is None or my is None:
        assert doc["result"]["moments_provenance"] == "quadrature"
    else:
        assert doc["result"]["moments"] == [str(m) for m in free_convolve_moments(mx, my)]
        assert doc["result"]["moments_provenance"] == "exact"


def test_output_moments_are_those_of_the_emitted_measure(capsys):
    doc = run_json(capsys, ["freeconv", "--law-x", "semicircle", "--law-y", "semicircle",
                            "--route", "analytic", "--grid-size", "256"])
    d = doc["result"]["density"]
    mu = measures.Measure(atoms=d["atoms"], support=d["support"], samples=d["samples"],
                          edges=d["edges"], normalize=False)
    got = doc["result"]["moments_output"]
    assert np.allclose(got, measures.moments(mu, 6), rtol=1e-14, atol=1e-15)
    # semicircle(2) boxplus semicircle(2) is the semicircle of variance 2
    exact = [0, 2, 0, 8, 0, 40]
    err = max(abs(a - b) / max(1, abs(b)) for a, b in zip(got, exact))
    assert doc["diagnostics"]["output_moment_error"] == pytest.approx(err, rel=1e-9)
    assert err < 1e-2


def test_output_moment_error_records_the_point_arcsine_defect(capsys):
    # The output is a shifted arcsine.  At fixed eta its inverse-square-root
    # edges lose mass, which normalisation hides; the error does not fall
    # with the grid.  A fix should turn this bound around.
    doc = run_json(capsys, ["freeconv", "--law-x", "point:c=1.5", "--law-y", "arcsine",
                            "--route", "analytic", "--grid-size", "256"])
    assert doc["diagnostics"]["output_moment_error"] > 1e-2


def test_mass_defect_records_the_point_arcsine_mass_loss(capsys):
    # The mass that the inversion's output lacks before normalisation: the
    # loss at the inverse-square-root edges behind the defect above.
    doc = run_json(capsys, ["freeconv", "--law-x", "point:c=1.5", "--law-y", "arcsine",
                            "--route", "analytic", "--grid-size", "256"])
    assert doc["diagnostics"]["mass_defect"] > 1e-2


def test_output_moment_error_is_null_without_exact_moments(capsys):
    doc = run_json(capsys, ["freeconv", "--law-x", "sato_tate", "--law-y", "bernoulli",
                            "--route", "analytic", "--grid-size", "128"])
    assert doc["diagnostics"]["output_moment_error"] is None
    assert len(doc["result"]["moments_output"]) == 6


@pytest.mark.parametrize("law_x,law_y,uses_kernel", [
    ("semicircle", "arcsine", False),
    ("bernoulli", "sato_tate", True),
])
def test_named_laws_enter_the_solver_in_closed_form(capsys, monkeypatch, law_x, law_y,
                                                    uses_kernel):
    calls = []
    kernel = _kernels.cauchy_many

    def counted(z, poles, weights, t, f):
        calls.append(np.size(z))
        return kernel(z, poles, weights, t, f)

    monkeypatch.setattr(_kernels, "cauchy_many", counted)
    run_json(capsys, ["freeconv", "--law-x", law_x, "--law-y", law_y,
                      "--route", "analytic", "--grid-size", "128"])
    assert bool(calls) == uses_kernel


def test_seed_environment_is_read_on_every_call(capsys, monkeypatch):
    for seed in (5, 6):
        monkeypatch.setenv("FREEPROB_SEED", str(seed))
        doc = run_json(capsys, ["kesten", "--d", "2", "--nmax", "4"])
        assert doc["config"]["seed"] == seed
    assert cli._build_parser() is cli._build_parser()
