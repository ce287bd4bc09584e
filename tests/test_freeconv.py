"""Free additive convolution: exact moment route, analytic route, flow check."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeprob import freeconv
from freeprob.freeconv import (
    ContinuationError,
    convolved_cauchy,
    free_clt,
    free_convolve_analytic,
    free_convolve_moments,
    free_cumulants_from_moments,
    free_moments_from_cumulants,
    free_poisson,
    semicircle_flow_residual,
)
from freeprob.measures import make_named, moments, named_cauchy

BERN = [Fraction(0), Fraction(1)] * 3

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)
moment_lists = st.lists(rationals, min_size=1, max_size=5)


def test_bernoulli_pair_exact():
    assert free_convolve_moments(BERN, BERN) == [
        Fraction(0), Fraction(2), Fraction(0), Fraction(6), Fraction(0), Fraction(20),
    ]


def test_semicircle_is_stable():
    sc = [Fraction(0), Fraction(1), Fraction(0), Fraction(2), Fraction(0), Fraction(5)]
    out = free_convolve_moments(sc, sc)
    # sum of two free standard semicircles is a semicircle of variance 2
    assert out == [Fraction(0), Fraction(2), Fraction(0), Fraction(8), Fraction(0), Fraction(40)]


def test_convolution_adds_free_cumulants():
    mx = [Fraction(1), Fraction(3), Fraction(2), Fraction(9)]
    my = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5)]
    kx = free_cumulants_from_moments(mx)
    ky = free_cumulants_from_moments(my)
    expect = free_moments_from_cumulants([a + b for a, b in zip(kx, ky)])
    assert free_convolve_moments(mx, my) == expect


@settings(max_examples=40)
@given(moment_lists, moment_lists)
def test_convolution_is_commutative(mx, my):
    k = min(len(mx), len(my))
    assert free_convolve_moments(mx[:k], my[:k]) == free_convolve_moments(my[:k], mx[:k])


@settings(max_examples=25)
@given(moment_lists)
def test_point_mass_translates(m):
    # convolving with a point mass at c shifts the distribution by c
    c = Fraction(3, 2)
    pt = [c**j for j in range(1, len(m) + 1)]
    out = free_convolve_moments(m, pt)
    # check by binomially expanding E[(x + c)^n]
    full = [Fraction(1)] + [Fraction(v) for v in m]
    expect = [
        sum(math.comb(n, j) * full[j] * c ** (n - j) for j in range(n + 1))
        for n in range(1, len(m) + 1)
    ]
    assert out == expect


def test_free_clt_fourth_moment_approaches_semicircle():
    base = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    for n in (1, 2, 4, 50):
        out = free_clt(base, n)
        assert out[1] == 1  # normalized to unit variance
        assert out[3] == 2 - Fraction(1, n)


def test_free_clt_rejects_zero_variance():
    with pytest.raises(ValueError):
        free_clt([Fraction(1), Fraction(1)], 4)


def test_free_poisson_matches_iterated_convolution():
    lam, alpha, n = Fraction(1), Fraction(2), 3
    out = free_poisson(lam, alpha, n, 4)
    mu_n = [(lam / n) * alpha**k for k in range(1, 5)]
    acc = mu_n
    for _ in range(n - 1):
        acc = free_convolve_moments(acc, mu_n)
    assert out == acc


def test_free_poisson_large_n_near_catalan():
    out = free_poisson(1, 1, 10**6, 4)
    for got, cat in zip(out, [1, 2, 5, 14]):
        assert abs(got - cat) / cat < 1e-5


def test_free_poisson_needs_enough_copies():
    with pytest.raises(ValueError):
        free_poisson(2, 1, 2, 4)


def test_marchenko_pastur_agrees_with_cumulant_model():
    lam, alpha = 0.5, 1.0
    model = free_moments_from_cumulants([lam * alpha**n for n in range(1, 7)])
    grid = moments(make_named("marchenko_pastur", lam=lam, alpha=alpha), 6)
    for a, b in zip(grid, model):
        assert abs(a - float(b)) < 1e-3


def test_analytic_route_matches_moment_route():
    b = make_named("bernoulli")
    res = free_convolve_analytic(b, b, grid_size=256)
    exact = free_convolve_moments(BERN, BERN)
    assert np.allclose(res.moments, [float(v) for v in exact], atol=1e-6)
    assert res.solver.residual < 1e-7 and res.solver.functional < 1e-7
    assert abs(res.measure.total_mass() - 1) < 1e-6


def test_analytic_density_is_arcsine_on_two_two():
    res = free_convolve_analytic(make_named("bernoulli"), make_named("bernoulli"), grid_size=512)
    mu = res.measure
    ts = np.linspace(-1.9, 1.9, 301)
    dens = np.interp(ts, mu.grid, mu.samples)
    exact = 1 / (np.pi * np.sqrt(4 - ts**2))
    assert np.max(np.abs(dens - exact)) < 2e-2


def test_convolved_cauchy_arcsine_pair_closed_form():
    arc = make_named("arcsine")
    s12 = cmath.sqrt(12)
    for z in (1 + 1j, -2 + 0.5j, 0.3 + 2j, 4 + 0.2j):
        closed = 3 / (z + 2 * cmath.sqrt(z - s12) * cmath.sqrt(z + s12))
        got = convolved_cauchy(arc, arc, z)
        assert abs(got - closed) < 1e-5


def test_convolved_cauchy_point_masses_exact_shift():
    p, q = make_named("point", c=1.0), make_named("point", c=-3.0)
    z = 0.7 + 1.3j
    assert abs(convolved_cauchy(p, q, z) - 1 / (z + 2)) < 1e-10


def test_flow_residual_shrinks_at_second_order():
    for mu in (make_named("semicircle"), make_named("point", c=0.0)):
        coarse = abs(semicircle_flow_residual(mu, 1.0, 2j, 0.04))
        fine = abs(semicircle_flow_residual(mu, 1.0, 2j, 0.02))
        assert coarse / fine >= 3.5


def test_continuation_error_carries_failure_point():
    err = ContinuationError("stalled", z=1 + 2j)
    assert isinstance(err, RuntimeError)
    assert err.z == 1 + 2j


# G of the convolution at the probe points above and at points near the axis,
# as the eta-ladder continuation solve computed it before it was replaced by
# subordination: (law x, grid, params, law y, grid, params, z, G).
FROZEN_LADDER = [
    ("arcsine", 2048, {}, "arcsine", 2048, {}, 1 + 1j,
     0.07191531441523953 - 0.3630126064440789j),
    ("arcsine", 2048, {}, "arcsine", 2048, {}, -2 + 0.5j,
     -0.17267656509316573 - 0.40331782537243144j),
    ("arcsine", 2048, {}, "arcsine", 2048, {}, 0.3 + 2j,
     0.018014613146066605 - 0.29942228524331665j),
    ("arcsine", 2048, {}, "arcsine", 2048, {}, 4 + 0.2j,
     0.3668096782265874 - 0.045010627389870536j),
    ("point", 2048, {"c": 1.0}, "point", 2048, {"c": -3.0}, 0.7 + 1.3j,
     0.3006681514492861 - 0.14476614699198787j),
    ("bernoulli", 2048, {}, "bernoulli", 2048, {}, 0.5 + 1e-3j,
     6.885300629331979e-05 - 0.5163976968688964j),
    ("bernoulli", 2048, {}, "bernoulli", 2048, {}, 1.9 + 5e-4j,
     0.0039004959825304207 - 1.6012667730519818j),
    ("bernoulli", 2048, {}, "bernoulli", 2048, {}, -1.2 + 1e-3j,
     -0.00029296841740650807 - 0.624999671936404j),
    ("semicircle", 512, {}, "bernoulli", 2048, {}, 0.3 + 1e-3j,
     -0.14089707695890147 - 0.5652294400243947j),
    ("semicircle", 512, {}, "bernoulli", 2048, {}, 2.5 + 5e-4j,
     0.8181926333590924 - 0.2699667758586764j),
    ("point", 2048, {"c": 1.5}, "bernoulli", 2048, {}, 0.5 + 1e-3j,
     -0.24999993751750016 - 500.0001249993998j),
    ("point", 2048, {"c": 1.5}, "bernoulli", 2048, {}, 1 + 1e-3j,
     0.6666628148307485 - 0.0022222141234888326j),
    ("arcsine", 512, {}, "sato_tate", 512, {}, 1.5 + 1e-3j,
     -0.0013711439080715765 - 0.4987430943840357j),
    ("semicircle", 2048, {}, "semicircle", 4096, {"r": 1.0}, 2j,
     -1.119758576904357e-15 - 0.40000005239865843j),
    ("point", 2048, {"c": 0.0}, "semicircle", 4096, {"r": 1.0}, 2j,
     -2.5887415755735642e-15 - 0.47213596081606923j),
]


@pytest.mark.parametrize("case", FROZEN_LADDER, ids=lambda c: f"{c[0]}+{c[3]}@{c[6]}")
def test_subordination_matches_frozen_ladder_solve(case):
    law_x, grid_x, par_x, law_y, grid_y, par_y, z, frozen = case
    mu_x = make_named(law_x, grid_x, **par_x)
    mu_y = make_named(law_y, grid_y, **par_y)
    for a, b in ((mu_x, mu_y), (mu_y, mu_x)):
        assert abs(convolved_cauchy(a, b, z) - frozen) <= 1e-10 * abs(frozen)


def test_unconverged_point_raises_continuation_error(monkeypatch):
    monkeypatch.setattr(freeconv, "MAX_ROUNDS", 2)
    b = make_named("bernoulli")
    z = 0.5 + 1e-3j
    with pytest.raises(ContinuationError) as info:
        convolved_cauchy(b, b, z)
    assert info.value.z == z


def test_analytic_solver_counters_are_deterministic():
    b, st = make_named("bernoulli"), make_named("sato_tate", 128)
    res = free_convolve_analytic(b, st, grid_size=128)
    again = free_convolve_analytic(b, st, grid_size=128)
    assert res.solver == again.solver
    assert 1 <= res.solver.iterations <= freeconv.MAX_ROUNDS
    assert res.solver.worst_z.imag in (1e-3, 5e-4)


@pytest.mark.parametrize(
    "x,y,z,exact",
    [
        # Bernoulli boxplus Bernoulli is the arcsine law on [-2, 2]; at z = 1e-6i
        # w - T(w) is close to a double root
        (("bernoulli", {}), ("bernoulli", {}), 1e-6j, -1j / math.sqrt(4 + 1e-12)),
        # point(1.5) boxplus Bernoulli is (delta_0.5 + delta_2.5)/2; at the centre
        # of its gap G is small and one subordination function is about 1e4
        (("point", {"c": 1.5}), ("bernoulli", {}), 1.5 + 1e-4j,
         0.5 / (1 + 1e-4j) + 0.5 / (-1 + 1e-4j)),
    ],
    ids=["bernoulli+bernoulli", "point+bernoulli"],
)
def test_subordination_exact_at_hard_points(x, y, z, exact):
    mu_x, mu_y = make_named(x[0], **x[1]), make_named(y[0], **y[1])
    for a, b in ((mu_x, mu_y), (mu_y, mu_x)):
        assert abs(convolved_cauchy(a, b, z) - exact) < 1e-10


def test_subordination_in_a_gap_is_linear_in_eta():
    # Bernoulli boxplus Sato-Tate has a gap around pi/2, where G(pi/2) = 0 by
    # symmetry, so G(pi/2 + i eta) is i eta G'(pi/2) up to O(eta^3)
    b, st = make_named("bernoulli"), make_named("sato_tate", 512)
    for mu_x, mu_y in ((b, st), (st, b)):
        g3 = convolved_cauchy(mu_x, mu_y, math.pi / 2 + 1e-3j)
        g4 = convolved_cauchy(mu_x, mu_y, math.pi / 2 + 1e-4j)
        assert abs(g4 / g3 - 0.1) < 1e-5


def test_closed_form_inputs_give_the_summed_semicircle():
    sc = make_named("semicircle", 256)
    g = named_cauchy("semicircle")
    res = free_convolve_analytic(sc, sc, grid_size=512, eta=1e-3, cauchy_x=g, cauchy_y=g)
    r = 2.0 * math.sqrt(2.0)
    t = res.measure.grid
    exact = 2.0 / (math.pi * r * r) * np.sqrt(np.maximum(r * r - t * t, 0.0))
    assert np.max(np.abs(res.measure.samples - exact)) < 1e-4
    assert res.solver.residual < 1e-8
