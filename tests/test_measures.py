"""Named laws, Cauchy transforms, Stieltjes inversion, serialization."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_oracles import marchenko_pastur_moments, moments_per_order
from freeprob import _kernels, series
from freeprob.measures import (
    NAMED_TAGS,
    InversionError,
    Measure,
    cauchy,
    cauchy_evaluator,
    make_named,
    moments,
    named_cauchy,
    named_cumulants,
    named_input,
    named_moments,
    resolve_law,
    stieltjes_invert,
    support_radius,
    to_csv,
)

UPPER = st.complex_numbers(min_magnitude=0.1, max_magnitude=5).map(
    lambda w: w.real + 1j * (abs(w.imag) + 0.2)
)


def with_every_default(cases):
    """``cases``, plus every named law at its default parameters, so that a
    new law is covered by the table-wide tests with no edit to them."""
    return cases + [(tag, {}) for tag in NAMED_TAGS if (tag, {}) not in cases]


def test_named_laws_have_unit_mass():
    for law, params in with_every_default([
        ("semicircle", {}),
        ("arcsine", {}),
        ("bernoulli", {}),
        ("marchenko_pastur", {}),
        ("marchenko_pastur", {"lam": 0.5}),
        ("sato_tate", {}),
        ("point", {"c": 1.5}),
    ]):
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


@pytest.mark.parametrize("lam,alpha", [
    (1.0, 1.0), (0.5, 1.0), (2.0, 0.5), (0.3, 1.7), (1e-6, 3.1), (1e6, 1e-3), (0.1, 7.0),
])
def test_marchenko_pastur_narayana_sum_is_the_cumulant_recursion(lam, alpha):
    got = named_moments("marchenko_pastur", 24, lam=lam, alpha=alpha)
    assert all(type(m) is Fraction for m in got)
    assert got == marchenko_pastur_moments(24, lam, alpha)


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


def test_cauchy_on_the_real_axis():
    sc = make_named("semicircle")
    for x in (0.5, 2.0):
        with pytest.raises(ValueError, match="lies on the support"):
            cauchy(sc, x)
    # off the support G is real: (3 - sqrt 5)/2 at z = 3
    exact = 2 / (3 + math.sqrt(5))
    assert abs(cauchy(sc, 3.0) - exact) <= 1e-6 * exact
    b = make_named("bernoulli")
    with pytest.raises(ValueError, match="is on an atom"):
        cauchy(b, 1.0)
    assert np.allclose(cauchy(b, np.array([0.0, 2.0])), [0.0, 2 / 3], rtol=1e-15, atol=1e-15)


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
    rec = stieltjes_invert(cauchy_evaluator(sc), (-2.2, 2.2))
    assert rec.atoms == ()
    assert abs(rec.total_mass() - 1) < 1e-5
    assert np.max(np.abs(moments(rec, 4) - moments(sc, 4))) < 1e-4


def _counting(G):
    """G, and the list of the batch sizes it was called on."""
    sizes = []

    def counted(w):
        sizes.append(w.size)
        return G(w)

    return counted, sizes


@pytest.mark.parametrize("law,hint", [("semicircle", (-2.2, 2.2)), ("bernoulli", (-1.5, 1.5))],
                         ids=["semicircle", "bernoulli"])
def test_stieltjes_invert_calls_g_once(law, hint):
    # a transform with poles too: they are smeared into the density, and no
    # atom is looked for
    mu = make_named(law)
    G, sizes = _counting(cauchy_evaluator(mu))
    rec = stieltjes_invert(G, hint, grid_size=256)
    assert rec.atoms == ()
    assert sizes == [257]  # the grid at its one height, in one batch


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
def test_stieltjes_invert_needs_a_positive_finite_height(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        stieltjes_invert(lambda w: (1 / w, -1 / w**2), (-1, 1), eps=eps)


def test_stieltjes_invert_needs_a_vectorised_transform():
    with pytest.raises(ValueError, match="must map an array of points"):
        stieltjes_invert(lambda w: (complex(np.sum(1 / w)), complex(np.sum(-1 / w**2))), (-1, 1))


def test_stieltjes_invert_rejects_non_herglotz_input():
    with pytest.raises(InversionError):
        stieltjes_invert(lambda w: (1j * abs(w), np.zeros_like(w)), (-1, 1))


def test_stieltjes_invert_normalises_and_keeps_the_raw_mass():
    # half a semicircle's transform, alone and beside an atom of mass 1/2 at 3
    sc = make_named("semicircle")
    half = lambda w: tuple(0.5 * v for v in cauchy_evaluator(sc)(w))
    alone = stieltjes_invert(half, (-2.2, 2.2), grid_size=256)
    assert abs(alone.total_mass() - 1.0) < 1e-12
    assert abs(alone.raw_mass - 0.5) < 1e-3
    rec = stieltjes_invert(half, (-2.2, 2.2), grid_size=256, atoms=((3.0, 0.5),))
    assert rec.atoms == ((3.0, 0.5),)
    assert abs(rec.total_mass() - 1.0) < 1e-12
    assert rec.raw_mass == 0.5 + alone.raw_mass


def test_stieltjes_invert_names_the_first_point_whose_density_is_not_finite():
    # NaN would pass the test for a negative density, and the Measure's own
    # test would raise a ValueError, which the CLI reads as bad input
    closed = named_cauchy("semicircle")

    def transform(w):
        g, gp = closed(w)
        g[40] = np.nan
        gp[10] = np.inf
        return g, gp

    with pytest.raises(InversionError, match=r"density inf at t=-1\.5125, eps=0\.001: "):
        stieltjes_invert(transform, (-2.2, 2.2), grid_size=64)


def test_stieltjes_invert_rejects_a_zero_density_that_leaves_mass_missing():
    real = lambda w: (np.zeros(w.shape, dtype=np.complex128),) * 2
    with pytest.raises(InversionError, match="so mass 0.25 is missing"):
        stieltjes_invert(real, (-1, 1), atoms=((0.0, 0.75),))
    # atoms of unit mass need no density
    assert stieltjes_invert(real, (-1, 1), atoms=((0.0, 1.0),)).raw_mass == 1.0


def test_stieltjes_invert_reports_the_clipped_negative_mass():
    # G = -i pi (c + s z) has G' = -i pi s, so the inversion reads the density
    # c + s t exactly: it dips to -delta at t = -1 and is negative on
    # [-1, -0.75), a grid cell edge, where clipping removes s 0.25^2 / 2
    delta = 5e-7
    s = delta / 0.25
    c = 0.75 * s

    def linear(w):
        return -1j * math.pi * (c + s * w), np.full(w.shape, -1j * math.pi * s)

    rec = stieltjes_invert(linear, (-1.0, 1.0), grid_size=64)
    assert abs(rec.clipped_negative_mass - s * 0.25**2 / 2) <= 1e-9 * s * 0.25**2 / 2
    t = rec.grid
    assert np.all(rec.samples[t < -0.75] == 0.0) and np.all(rec.samples[t > -0.75] > 0.0)
    # a measure built from its samples clipped nothing
    assert Measure(atoms=((0.0, 1.0),)).clipped_negative_mass == 0.0


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


@pytest.mark.parametrize("law,params", with_every_default([
    ("semicircle", {}),
    ("semicircle", {"r": 3.0}),
    ("arcsine", {}),
    ("bernoulli", {}),
    ("point", {"c": 1.5}),
    ("marchenko_pastur", {"lam": 0.5}),
    ("marchenko_pastur", {"lam": 2.0, "alpha": 0.5}),
]))
def test_cumulant_column_equals_extracted_cumulants(law, params):
    kappa, m = named_cumulants(law, 40, **params), named_moments(law, 40, **params)
    assert (kappa is None) == (m is None)  # sato_tate has neither column
    if m is not None:
        assert kappa == series.free_cumulants_from_moments(m)
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


def test_overflowing_moments_are_infinite_not_nan():
    mu = make_named("semicircle", 128, r=1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = moments(mu, 6)
    assert m[3] == math.inf and m[5] == math.inf
    assert not np.any(np.isnan(m))
    # the entries that fit a float keep the plain sum's bits
    p, w, t, tw = mu._poles, mu._weights, mu._t, mu._tw
    assert m[1] == float(np.sum(w * p**2)) + float(np.sum(tw * t**2))


@pytest.mark.parametrize("law,params,grid", [
    ("semicircle", {}, 64),
    ("semicircle", {"r": 3.0}, 2048),
    ("semicircle", {"r": 1e100}, 128),  # moments past the float range
    ("arcsine", {}, 64),
    ("arcsine", {}, 512),
    ("bernoulli", {}, 64),
    ("point", {"c": 1e6}, 64),
    ("marchenko_pastur", {"lam": 0.5}, 512),
    ("marchenko_pastur", {"lam": 2.0, "alpha": 0.5}, 256),
    ("sato_tate", {}, 128),
])
def test_moments_power_table_is_bit_identical_to_the_per_order_sums(law, params, grid):
    mu = make_named(law, grid, **params)
    for order in (1, 2, 6, 8, 12, 40):
        assert moments(mu, order).tobytes() == moments_per_order(mu, order).tobytes()


@pytest.mark.parametrize("law,params", with_every_default([
    ("semicircle", {}),
    ("semicircle", {"r": 3.0}),
    ("arcsine", {}),
    ("bernoulli", {}),
    ("point", {"c": 1.5}),
    ("marchenko_pastur", {"lam": 1.0}),
    ("marchenko_pastur", {"lam": 0.5}),
    ("marchenko_pastur", {"lam": 2.0, "alpha": 0.5}),
]))
def test_named_input_is_read_from_the_law(law, params):
    # the atoms and support of the cell measure, the exact moments as floats;
    # no input for a law with a density and no closed-form G (sato_tate)
    law_input = named_input(law, **params)
    mu = make_named(law, 256, **params)
    assert (law_input is None) == (mu.support is not None and named_cauchy(law, **params) is None)
    if law_input is None:
        return
    assert law_input.atoms == mu.atoms
    assert law_input.support == mu.support
    assert law_input.moments(12) == [float(m) for m in named_moments(law, 12, **params)]


def test_named_input_moments_past_the_float_range_are_infinite():
    m = named_input("semicircle", r=1e100).moments(6)
    assert m[:3] == [0.0, float((Fraction(1e100) / 2) ** 2), 0.0]
    assert m[3:] == [math.inf, 0.0, math.inf]
    assert named_input("point", c=-1e200).moments(3) == [-1e200, math.inf, -math.inf]


@pytest.mark.parametrize("law,params", [("bernoulli", {}), ("point", {"c": 1.5})])
def test_atom_laws_enter_as_the_bare_pole_sum(law, params):
    # the same bits as the kernel on their measure
    z = np.array([0.3 + 0.9j, -1.0 + 1e-6j, 1.5 + 1e-3j, 40.0 + 2.0j, 1e-9 + 1e300j])
    g, gp = named_input(law, **params).cauchy(z)
    g_cells, gp_cells = cauchy_evaluator(make_named(law, **params))(z)
    assert g.tobytes() == g_cells.tobytes() and gp.tobytes() == gp_cells.tobytes()


def test_sato_tate_has_no_named_input():
    assert named_input("sato_tate") is None


def test_marchenko_pastur_takes_each_form_only_where_it_is_chosen():
    # the same bits as evaluating both forms everywhere and choosing
    lam, alpha = 0.5, 2.0
    a, b = alpha * (1 - math.sqrt(lam)) ** 2, alpha * (1 + math.sqrt(lam)) ** 2
    x = np.concatenate([np.linspace(-1e-3, 1e-3, 41), np.linspace(a - 1.0, b + 1.0, 81)])
    z = np.concatenate([x + 1e-8j, x + 0.3j])
    g, gp = named_cauchy("marchenko_pastur", lam=lam, alpha=alpha)(z)
    s = np.sqrt(z - a) * np.sqrt(z - b)
    plus, minus = z + alpha * (1 - lam) + s, z + alpha * (1 - lam) - s
    conjugate = np.abs(plus) < np.abs(minus)
    assert conjugate.any() and not conjugate.all()
    both = np.where(conjugate, minus / (2.0 * alpha * z), 2.0 / plus)
    assert g.tobytes() == both.tobytes()
    assert gp.tobytes() == (both * (alpha * both - 1.0) / s).tobytes()
