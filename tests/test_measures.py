"""Named laws, Cauchy transforms, Stieltjes inversion, serialization."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeprob import _kernels, series
from freeprob.measures import (
    InversionError,
    Measure,
    cauchy,
    cauchy_evaluator,
    from_json,
    make_named,
    moments,
    named_cauchy,
    named_cumulants,
    named_moments,
    resolve_law,
    stieltjes_invert,
    support_radius,
    to_csv,
    to_json,
)

UPPER = st.complex_numbers(min_magnitude=0.1, max_magnitude=5).map(
    lambda w: w.real + 1j * (abs(w.imag) + 0.2)
)


def test_named_laws_have_unit_mass():
    for law, params in [
        ("semicircle", {}),
        ("arcsine", {}),
        ("bernoulli", {}),
        ("marchenko_pastur", {}),
        ("marchenko_pastur", {"lam": 0.5}),
        ("sato_tate", {}),
        ("point", {"c": 1.5}),
    ]:
        mu = make_named(law, **params)
        assert abs(mu.total_mass() - 1.0) < 1e-9


def test_unknown_law_rejected():
    with pytest.raises(ValueError):
        make_named("lorentzian")


@pytest.mark.parametrize("law,params", [
    ("semicircle", {}),
    ("semicircle", {"r": 3.0}),
    ("arcsine", {}),
    ("bernoulli", {}),
    ("point", {"c": 1.5}),
    ("marchenko_pastur", {"lam": 1.0}),
    ("marchenko_pastur", {"lam": 0.5}),
    ("marchenko_pastur", {"lam": 2.0, "alpha": 0.5}),
])
def test_density_and_exact_moments_describe_one_law(law, params):
    grid = moments(make_named(law, 4096, **params), 6)
    exact = named_moments(law, 6, **params)
    for got, m in zip(grid, exact):
        assert abs(got - float(m)) <= 1e-5 * max(1.0, abs(float(m)))


def test_sato_tate_has_no_exact_moments():
    assert named_moments("sato_tate", 4) is None


@pytest.mark.parametrize("law,params,message", [
    ("marchenko_pastur", {"λ": 0.5}, "unexpected parameters"),
    ("point", {"c": math.inf}, "must be finite"),
    ("semicircle", {"r": math.nan}, "must be finite"),
    ("semicircle", {"r": 0.0}, "must be positive"),
    ("marchenko_pastur", {"alpha": -1.0}, "must be positive"),
])
def test_resolver_rejects_bad_laws(law, params, message):
    with pytest.raises(ValueError, match=message):
        resolve_law(law, **params)
    with pytest.raises(ValueError, match=message):
        make_named(law, **params)


def test_semicircle_moments_are_catalans():
    sc = make_named("semicircle")
    m = moments(sc, 8)
    assert np.allclose(m[0::2], 0.0, atol=1e-6)
    assert np.allclose(m[1::2], [1, 2, 5, 14], atol=1e-4)
    # radius r scales m_{2k} by (r/2)^{2k}
    sc3 = make_named("semicircle", r=3.0)
    assert abs(moments(sc3, 2)[1] - 9 / 4) < 1e-4


def test_arcsine_moments_are_central_binomials():
    arc = make_named("arcsine")
    m = moments(arc, 6)
    assert np.allclose(m[1::2], [math.comb(2 * k, k) for k in (1, 2, 3)], atol=1e-3)


def test_bernoulli_is_two_atoms():
    b = make_named("bernoulli")
    assert b.samples is None
    assert b.atoms == ((-1.0, 0.5), (1.0, 0.5))
    assert np.allclose(moments(b, 4), [0, 1, 0, 1])


def test_marchenko_pastur_atom_appears_below_lambda_one():
    thin = make_named("marchenko_pastur", lam=0.5)
    assert any(abs(loc) < 1e-12 and abs(w - 0.5) < 1e-12 for loc, w in thin.atoms)
    square = make_named("marchenko_pastur", lam=1.0)
    assert square.atoms == ()
    # scale alpha multiplies m_n by alpha^n
    m = moments(make_named("marchenko_pastur", lam=1.0, alpha=2.0), 2)
    assert abs(m[0] - 2.0) < 1e-3 and abs(m[1] - 8.0) < 1e-2


def test_sato_tate_moments():
    st_law = make_named("sato_tate")
    m = moments(st_law, 2)
    # angle distribution on [0, pi] with a sin^2 weight
    assert abs(m[0] - math.pi / 2) < 1e-6
    assert abs(m[1] - (math.pi**2 / 3 - 0.5)) < 1e-5


def test_point_mass():
    p = make_named("point", c=2.5)
    assert p.atoms == ((2.5, 1.0),)
    assert np.allclose(moments(p, 3), [2.5, 6.25, 15.625])
    assert support_radius(p) == 2.5


def test_cauchy_semicircle_closed_form():
    sc = make_named("semicircle")
    for z in (1.3 + 0.7j, -0.2 + 2j, 3 + 0.5j):
        # branch-safe square root: sqrt(z-2)*sqrt(z+2) ~ z at infinity
        exact = (z - cmath.sqrt(z - 2) * cmath.sqrt(z + 2)) / 2
        assert abs(cauchy(sc, z) - exact) < 1e-6


def test_cauchy_arcsine_closed_form():
    arc = make_named("arcsine")
    z = 0.4 + 1.1j
    exact = 1 / (cmath.sqrt(z - 2) * cmath.sqrt(z + 2))
    assert abs(cauchy(arc, z) - exact) < 1e-5


def test_cauchy_atoms_exact():
    b = make_named("bernoulli")
    z = 0.3 + 0.9j
    assert cauchy(b, z) == 0.5 / (z - 1) + 0.5 / (z + 1)


@settings(max_examples=40, deadline=None)
@given(UPPER)
def test_cauchy_maps_upper_half_plane_down(z):
    sc = make_named("semicircle")
    g = cauchy(sc, z)
    assert g.imag < 0
    # decay like 1/z far out
    far = cauchy(sc, 50j)
    assert abs(far - 1 / 50j) < 1e-3


def test_cauchy_derivative_matches_finite_difference():
    sc = make_named("semicircle")
    z = 1.1 + 0.8j
    g, dg = (v[0] for v in cauchy_evaluator(sc)(np.array([z])))
    assert g == cauchy(sc, z)
    h = 1e-6
    fd = (cauchy(sc, z + h) - cauchy(sc, z - h)) / (2 * h)
    assert abs(dg - fd) < 1e-7


@pytest.mark.parametrize("law,params", [
    ("semicircle", {}),
    ("sato_tate", {}),
    ("arcsine", {}),
    ("marchenko_pastur", {"lam": 0.5}),
    ("bernoulli", {}),
], ids=["semicircle", "sato_tate", "arcsine", "marchenko_pastur-lam0.5", "bernoulli"])
def test_cauchy_far_from_support_matches_moment_series(law, params):
    mu = make_named(law, 512, **params)
    z = 1e4 + 3j
    m = moments(mu, 6)
    series = 1 / z + sum(m[k - 1] / z ** (k + 1) for k in range(1, 7))
    assert abs(cauchy(mu, z) - series) <= 1e-9 * abs(series)


def test_stieltjes_invert_round_trip_density():
    sc = make_named("semicircle")
    rec = stieltjes_invert(lambda w: cauchy(sc, w), (-2.2, 2.2))
    assert rec.atoms == ()
    assert abs(rec.total_mass() - 1) < 1e-5
    assert np.max(np.abs(moments(rec, 4) - moments(sc, 4))) < 1e-4


def test_stieltjes_invert_recovers_atoms():
    b = make_named("bernoulli")
    rec = stieltjes_invert(lambda w: cauchy(b, w), (-1.5, 1.5))
    locs = sorted(loc for loc, _ in rec.atoms)
    ws = [w for _, w in rec.atoms]
    assert len(locs) == 2
    assert abs(locs[0] + 1) < 1e-6 and abs(locs[1] - 1) < 1e-6
    assert all(abs(w - 0.5) < 1e-5 for w in ws)


def test_stieltjes_invert_needs_a_vectorised_transform():
    with pytest.raises(ValueError, match="must map an array of points"):
        stieltjes_invert(lambda w: complex(np.sum(1 / w)), (-1, 1))


def test_stieltjes_invert_rejects_non_herglotz_input():
    with pytest.raises(InversionError):
        stieltjes_invert(lambda w: 1j * abs(w), (-1, 1))


def test_json_round_trip():
    for mu in (make_named("semicircle"), make_named("bernoulli"), make_named("marchenko_pastur", lam=0.5)):
        back = from_json(to_json(mu))
        assert back.support == mu.support
        assert back.edges == mu.edges
        assert back.atoms == mu.atoms
        if mu.samples is None:
            assert back.samples is None
        else:
            assert np.array_equal(back.samples, mu.samples)


def test_csv_has_grid_rows():
    sc = make_named("semicircle", grid_size=128)
    lines = to_csv(sc).splitlines()
    assert lines[0] == "t,density"
    assert len(lines) == 129
    t0, d0 = lines[1].split(",")
    assert float(t0) == -2.0 and float(d0) == 0.0


def test_support_radius():
    assert support_radius(make_named("semicircle")) == 2.0
    assert abs(support_radius(make_named("marchenko_pastur", lam=2.0)) - (1 + math.sqrt(2)) ** 2) < 1e-12
    assert support_radius(make_named("bernoulli")) == 1.0


def test_measure_normalizes_samples():
    x = np.linspace(-1, 1, 501)
    raw = 5.0 * (1 - x**2)
    mu = Measure(support=(-1.0, 1.0), samples=raw, normalize=True)
    assert abs(mu.total_mass() - 1) < 1e-9
    assert len(mu.grid) == 501


CLOSED_FORM_LAWS = [
    ("semicircle", {}),
    ("semicircle", {"r": 3.0}),
    ("arcsine", {}),
    ("marchenko_pastur", {"lam": 1.0}),
    ("marchenko_pastur", {"lam": 0.5}),  # atom of mass 0.5 at 0
    ("marchenko_pastur", {"lam": 2.0, "alpha": 0.5}),
]


@pytest.mark.parametrize("law,params", CLOSED_FORM_LAWS)
def test_closed_form_cauchy_matches_cell_kernel(law, params):
    mu = make_named(law, 4096, **params)
    closed, cells = named_cauchy(law, **params), cauchy_evaluator(mu)
    a, b = mu.support
    x = np.linspace(a - 0.5, b + 0.5, 401)
    for eta in (1e-2, 0.1, 1.0):
        z = x + 1j * eta
        g, g_cells = closed(z)[0], cells(z)[0]
        assert np.max(np.abs(g - g_cells) / np.abs(g_cells)) < 1e-4


@pytest.mark.parametrize("law,params", CLOSED_FORM_LAWS)
def test_closed_form_derivative_matches_centred_difference(law, params):
    closed = named_cauchy(law, **params)
    a, b = make_named(law, 64, **params).support
    z = np.linspace(a - 1.0, b + 1.0, 201) + 0.3j
    h = 1e-5
    fd = (closed(z + h)[0] - closed(z - h)[0]) / (2 * h)
    assert np.max(np.abs(closed(z)[1] - fd) / np.abs(fd)) < 1e-8


@pytest.mark.parametrize("law,params", CLOSED_FORM_LAWS)
def test_closed_form_cauchy_matches_moment_series(law, params):
    z = 1e3 * np.exp(1j * np.linspace(0.01, math.pi - 0.01, 40))
    m = [1.0] + [float(v) for v in named_moments(law, 12, **params)]
    series_sum = sum(mk / z ** (k + 1) for k, mk in reversed(list(enumerate(m))))
    g = named_cauchy(law, **params)(z)[0]
    assert np.max(np.abs(g - series_sum) / np.abs(series_sum)) <= 1e-13


@pytest.mark.parametrize("law,params", CLOSED_FORM_LAWS)
def test_closed_form_cauchy_maps_upper_half_plane_down(law, params):
    a, b = make_named(law, 64, **params).support
    x, y = np.meshgrid(np.linspace(a - 3.0, b + 3.0, 241), np.geomspace(1e-10, 1e4, 57))
    g = named_cauchy(law, **params)((x + 1j * y).ravel())[0]
    assert np.all(g.imag < 0)


def test_marchenko_pastur_closed_form_keeps_precision_at_its_atom():
    # lam = 0.5 puts mass 0.5 at 0, where z + alpha(1 - lam) + s cancels.
    # The kernel sums that atom as an exact pole, so beside G ~ 0.5/z the two
    # differ only by the cell error of the density's part, about 1e-6.
    z = np.array([1e-9j, 1e-6 + 1e-9j, -1e-7 + 1e-8j])
    g = named_cauchy("marchenko_pastur", lam=0.5)(z)[0]
    g_cells = cauchy_evaluator(make_named("marchenko_pastur", 4096, lam=0.5))(z)[0]
    assert np.max(np.abs(g - g_cells)) < 1e-5


@pytest.mark.parametrize("law,params", [("bernoulli", {}), ("point", {"c": 1.5})])
def test_atom_laws_evaluate_by_the_kernel_pole_sum(law, params):
    # they have no closed form beside their own measure's evaluator
    assert named_cauchy(law, **params) is None
    z = np.array([0.3 + 0.9j, -1.0 + 1e-6j, 1.5 + 1e-3j, 40.0 + 2.0j])
    mu = make_named(law, **params)
    g, gp = cauchy_evaluator(mu)(z)
    locs, masses = np.array(mu.atoms).T
    g_cells, gp_cells = _kernels.pole_sum(z, locs, masses)
    assert np.array_equal(g, g_cells) and np.array_equal(gp, gp_cells)


def test_sato_tate_has_no_closed_forms():
    assert named_cauchy("sato_tate") is None
    assert named_cumulants("sato_tate", 4) is None


@pytest.mark.parametrize("law,params", [
    ("semicircle", {}),
    ("semicircle", {"r": 3.0}),
    ("arcsine", {}),
    ("bernoulli", {}),
    ("point", {"c": 1.5}),
    ("marchenko_pastur", {"lam": 0.5}),
    ("marchenko_pastur", {"lam": 2.0, "alpha": 0.5}),
])
def test_cumulant_column_equals_extracted_cumulants(law, params):
    kappa = named_cumulants(law, 40, **params)
    assert kappa == series.free_cumulants_from_moments(named_moments(law, 40, **params))
    assert all(isinstance(k, Fraction) for k in kappa)


@pytest.mark.parametrize("law,params", [
    ("semicircle", {"r": 1e-300}),
    ("semicircle", {"r": 1e200}),
    ("marchenko_pastur", {"alpha": 1e-150}),
    ("marchenko_pastur", {"lam": 1e101}),
])
def test_parameter_outside_the_representable_range_is_rejected(law, params):
    with pytest.raises(ValueError, match=r"must lie in \[1e-100, 1e\+100\]"):
        resolve_law(law, **params)
    with pytest.raises(ValueError, match="must lie in"):
        make_named(law, **params)


@pytest.mark.parametrize("law,params", [
    ("semicircle", {"r": 1e-100}),
    ("semicircle", {"r": 1e100}),
    ("marchenko_pastur", {"alpha": 1e-100}),
    ("marchenko_pastur", {"alpha": 1e100}),
])
def test_range_ends_build_a_unit_mass(law, params):
    mu = make_named(law, 256, **params)
    assert abs(mu.total_mass() - 1.0) < 1e-9


@pytest.mark.parametrize("grid", [256, 2048])
def test_marchenko_pastur_at_large_lam_keeps_its_mass_or_raises(grid):
    # the support narrows next to its distance from 0 as lam grows, until its
    # grid points round unevenly and then coincide; the Cauchy kernel, which
    # integrates over the cells as they round, must see the same unit mass
    raised = []
    z = 1e45j  # |z| >> lam, so z G(z) = mass to rounding
    for k in range(31):
        try:
            mu = make_named("marchenko_pastur", grid, lam=10.0**k)
        except ValueError as exc:
            assert "too narrow" in str(exc)
            raised.append(k)
            continue
        assert abs(mu.total_mass() - 1.0) < 1e-9, k
        assert abs(z * cauchy(mu, z) - 1.0) < 1e-9, k
    assert 30 in raised and 0 not in raised


def test_grid_of_coincident_points_is_rejected():
    with pytest.raises(ValueError, match="too narrow for 64 distinct"):
        Measure(support=(1.0, 1.0 + 1e-14), samples=np.ones(64))
