"""Free additive convolution: exact moment route, analytic route, flow check."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeprob import freeconv, measures
from freeprob.freeconv import (
    ContinuationError,
    SolverCounters,
    free_clt,
    free_convolve_analytic,
    free_convolve_moments,
    free_cumulants_from_moments,
    free_moments_from_cumulants,
    free_poisson,
    semicircle_flow_residual,
)
from freeprob.measures import (
    NAMED_TAGS,
    cauchy_evaluator,
    make_named,
    moments,
    named_cauchy,
    named_input,
    named_moments,
)
from mc_oracles import convolved_cauchy

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


def test_free_clt_with_odd_cumulants():
    # 1/5 delta_2 + 4/5 delta_{-1/2}: centred, unit variance, kappa_3 = 3/2
    base = [Fraction(1, 5) * 2**n + Fraction(4, 5) * Fraction(-1, 2)**n for n in range(1, 7)]
    kappa = free_cumulants_from_moments(base)
    assert kappa[:3] == [0, 1, Fraction(3, 2)]
    # N = 4 is a square: N^(1 - n/2) = 2^(2 - n) keeps the odd cumulants exact
    out = free_clt(base, 4)
    assert all(isinstance(v, Fraction) for v in out)
    assert out == free_moments_from_cumulants(
        [k * Fraction(2) ** (2 - n) for n, k in enumerate(kappa, 1)])
    assert out[2] == Fraction(3, 4)
    # N = 3 is not: the odd cumulants, and so the whole run, go to floats
    out = free_clt(base, 3)
    want = free_moments_from_cumulants(
        [float(k) * 3.0 ** (1 - n / 2) for n, k in enumerate(kappa, 1)])
    assert all(isinstance(v, float) for v in out)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(out, want))
    assert abs(out[2] - math.sqrt(3) / 2) <= 1e-12
    # large N: the odd moments fade as N^(-1/2), m_4 tends to the semicircle's 2
    out = free_clt(base, 10**6)
    assert out[2] == Fraction(3, 2000)
    assert abs(out[3] - 2) <= 1e-5


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
    assert res.solver.residual < 1e-7
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


@pytest.mark.parametrize("tag", NAMED_TAGS)
def test_flow_characteristic_residual_is_at_the_solve_tolerance(tag):
    # G_s(z + s G_mu(z)) = G_mu(z) wherever the characteristic stays above
    # the axis; a cell measure only for the law without a closed-form G
    mu = freeconv._as_input(named_input(tag) or make_named(tag, 512))
    for z in (0.3 + 1j, 1 + 0.5j, -1.2 + 2j, 0.1 + 0.3j):
        g = complex(mu.cauchy(np.array([z]))[0][0])
        for s in (0.25, 1.0, 4.0):
            if (z + s * g).imag > 0:
                point, residual = semicircle_flow_residual(mu, s, z, SolverCounters())
                assert point == z + s * g
                assert residual <= 1e-11
            else:
                with pytest.raises(ValueError, match="leaves the upper half-plane"):
                    semicircle_flow_residual(mu, s, z, SolverCounters())


# Biane's boundary map, an oracle for mu boxplus sigma_s (sigma_s the
# semicircle of variance s) that needs no eta and no solve: with
# v_s(u) = inf{v > 0 : -Im G_mu(u + iv)/v <= 1/s}, the point
# psi(u) = u + s Re G_mu(u + i v_s(u)) carries the density v_s(u)/(pi s).

def _boundary_map(cauchy, s, u):
    """(psi(u), density at psi(u)) at the real points u, from mu's (G, G')
    evaluator.  -Im G_mu(u + iv)/v falls with v and is at most 1/v^2, so
    v_s(u) <= sqrt(s), and it is found by geometric bisection down to a
    floor of 1e-20 sqrt(s) (where v_s(u) = 0, u maps outside the support)."""
    lo = np.full(u.shape, 1e-20 * math.sqrt(s))
    hi = np.full(u.shape, math.sqrt(s))
    for _ in range(64):
        mid = np.sqrt(lo * hi)
        above = -cauchy(u + 1j * mid)[0].imag / mid > 1.0 / s
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return u + s * cauchy(u + 1j * hi)[0].real, hi / (math.pi * s)


def _flow_density(cauchy, s, x):
    """The density of mu boxplus sigma_s at the real points x, by bisection
    on psi(u) = x: psi increases, and |psi(u) - u| <= sqrt(s), since
    |G_mu(w)|^2 <= -Im G_mu(w)/Im w, which is at most 1/s at
    w = u + i v_s(u)."""
    lo, hi = x - 2.0 * math.sqrt(s), x + 2.0 * math.sqrt(s)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = _boundary_map(cauchy, s, mid)[0] < x
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return _boundary_map(cauchy, s, 0.5 * (lo + hi))[1]


def test_boundary_map_of_a_semicircle_is_the_summed_semicircle():
    # semicircle(r=2) boxplus sigma_1 is the semicircle of variance 2
    x, density = _boundary_map(named_cauchy("semicircle"), 1.0, np.linspace(-4.0, 4.0, 2001))
    exact = np.sqrt(np.maximum(8.0 - x * x, 0.0)) / (4.0 * math.pi)
    assert np.max(np.abs(density - exact)) < 1e-14


def test_analytic_route_matches_the_boundary_map():
    # the one-height inversion's eta^2 error, away from the edges at +-3.154
    # (1.3e-7 measured at grid 1024, eta 1e-3)
    out = free_convolve_analytic(named_input("semicircle"), named_input("arcsine"),
                                 grid_size=1024, eta=1e-3).measure
    inner = np.abs(out.grid) <= 2.8
    raw = out.samples[inner] * out.raw_mass  # the density before normalising
    exact = _flow_density(named_cauchy("arcsine"), 1.0, out.grid[inner])
    assert np.max(np.abs(raw - exact)) < 2e-7


@pytest.mark.parametrize("s,density", [(0.5, 0.0), (1.0, 0.0), (2.0, 1.0 / (2.0 * math.pi))])
def test_boundary_map_finds_the_cusp_of_bernoulli(s, density):
    # by symmetry u = 0 maps to x = 0, where -Im G(iv)/v = 1/(1 + v^2): the
    # density there is 0 up to s = 1 (a gap, then the cusp) and
    # sqrt(s - 1)/(pi s) beyond
    x, got = _boundary_map(named_input("bernoulli").cauchy, s, np.zeros(1))
    assert x[0] == 0.0
    assert abs(got[0] - density) < 1e-15


def _evaluator(law, closed):
    tag, params = law
    return named_cauchy(tag, **params) if closed else \
        cauchy_evaluator(make_named(tag, 128, **params))


def _mean_variance(law):
    m1, m2 = moments(make_named(law[0], 128, **law[1]), 2)
    return m1, max(m2 - m1 * m1, 0.0)


def _levels(lo, hi, eta):
    t = np.linspace(lo, hi, 129)
    return t + 1j * eta, t + 1j * eta / 2.0


# (x, y, closed, hint, eta, whether the solve from w = z restarts points)
BATCH_CASES = [
    # closed forms
    (("semicircle", {}), ("arcsine", {}), True, (-4.4, 4.4), 1e-3, False),
    # exact pole sums of atoms only; near 0 the solve is close to a double root
    (("bernoulli", {}), ("bernoulli", {}), False, (-2.4, 2.4), 1e-3, False),
    # the cell kernel on a density
    (("sato_tate", {}), ("bernoulli", {}), False, (-3.4, 3.4), 1e-3, False),
    # atoms with a gap at 1.5: at this eta its grid point stalls and is
    # solved again with X and Y swapped, at both heights
    (("point", {"c": 1.5}), ("bernoulli", {}), False, (0.3, 2.7), 1e-4, True),
    # the power map mu^{boxplus t}, at (x, t): its damped steps; from w = z,
    # sato_tate's cells stall points that are solved again with plain steps
    (("bernoulli", {}), 2.0, False, (-2.4, 2.4), 1e-7, False),
    (("arcsine", {}), 3.0, True, (-6.0, 6.0), 1e-3, False),
    (("sato_tate", {}), 1.5, False, (-3.4, 3.4), 1e-3, True),
    (("sato_tate", {}), 2.0, False, (-0.3, 6.6), 1e-3, True),
]


def _solve(x, y, closed):
    """The solve of x boxplus y, or of x^{boxplus y} for a number y, as
    (zs, counters, clt start?) -> (G, G')."""
    cauchy_x = _evaluator(x, closed)
    mean, var = _mean_variance(x)
    if isinstance(y, float):
        clt = ((mean, var), ((y - 1.0) * mean, (y - 1.0) * var))
        return lambda zs, counters, clt_start: freeconv._power_subordinate(
            zs, cauchy_x, y, counters,
            start=freeconv._free_clt_start(zs, *clt) if clt_start else None)
    cauchy_y = _evaluator(y, closed)
    clt = ((mean, var), _mean_variance(y))
    return lambda zs, counters, clt_start: freeconv._subordinate(
        zs, cauchy_x, cauchy_y, counters,
        start=freeconv._free_clt_start(zs, *clt) if clt_start else None)


@pytest.mark.parametrize("x,y,closed,hint,eta,restarts", BATCH_CASES,
                         ids=["semicircle+arcsine", "bernoulli+bernoulli",
                              "sato_tate+bernoulli", "point+bernoulli", "bernoulli^2",
                              "arcsine^3", "sato_tate^1.5", "sato_tate^2"])
def test_subordination_is_pointwise_across_batches(monkeypatch, x, y, closed, hint, eta,
                                                   restarts):
    restarted = []  # the sizes of the restarted solves
    newton = freeconv._newton

    def recording(z, fmap, solver, start=None, after=0, failed=None):
        if after:
            restarted.append(z.size)
        return newton(z, fmap, solver, start, after, failed)

    monkeypatch.setattr(freeconv, "_newton", recording)
    solve = _solve(x, y, closed)
    parts = _levels(*hint, eta)
    # from w = z, and from the free CLT start, which is pointwise too
    for clt_start in (False, True):
        zs = np.concatenate(parts)
        batched = SolverCounters()
        restarted.clear()
        whole, whole_p = solve(zs, batched, clt_start)
        if not clt_start:
            assert bool(restarted) == restarts
        apart = SolverCounters()
        pieces = [solve(p, apart, clt_start) for p in parts]
        assert whole.tobytes() == np.concatenate([g for g, _ in pieces]).tobytes()
        assert whole_p.tobytes() == np.concatenate([gp for _, gp in pieces]).tobytes()
        assert batched.rounds_finished.total() == whole.size
        # worst_z is the first point found at the worst residual; one batch
        # finds the two levels' points in another order, so an exact tie could
        # move it.  Every other counter is an aggregate.
        for name in ("residual", "iterations", "safeguarded_steps",
                     "rounds_finished", "median_iterations"):
            assert getattr(batched, name) == getattr(apart, name), name
        assert 1 <= batched.median_iterations <= batched.iterations


@pytest.mark.parametrize("x,y", [
    (("semicircle", {}, (0.0, 1.0)), ("semicircle", {"r": 1.0}, (0.0, 0.25))),
    (("point", {"c": 1.5}, (1.5, 0.0)), ("semicircle", {}, (0.0, 1.0))),
    (("semicircle", {}, (0.0, 1.0)), ("point", {"c": -0.1}, (-0.1, 0.0))),
], ids=["semicircle+semicircle", "point+semicircle", "semicircle+point"])
def test_free_clt_start_is_exact_for_semicircles_and_point_masses(x, y):
    # With X and Y semicircles, or Y a point mass, the start is omega_1 itself
    # (Biane 1997): every point is done in the first round, and G and G' are
    # the semicircle's of the summed mean and variance.
    (tag_x, par_x, clt_x), (tag_y, par_y, clt_y) = x, y
    cauchy_x, cauchy_y = (named_cauchy(tag, **par) or cauchy_evaluator(make_named(tag, **par))
                          for tag, par in ((tag_x, par_x), (tag_y, par_y)))
    t = np.linspace(-4.0, 4.0, 81)
    z = np.concatenate([t + 1e-3j, t + 1j])
    solver = SolverCounters()
    g, gp = freeconv._subordinate(z, cauchy_x, cauchy_y, solver,
                                  start=freeconv._free_clt_start(z, clt_x, clt_y))
    assert solver.iterations == 1
    sigma = named_cauchy("semicircle", r=2.0 * math.sqrt(clt_x[1] + clt_y[1]))
    exact, exact_p = sigma(z - (clt_x[0] + clt_y[0]))
    assert np.max(np.abs(g - exact) / np.abs(exact)) < 1e-12
    assert np.max(np.abs(gp - exact_p) / np.abs(exact_p)) < 1e-12


# perfbench's analytic argvs that solve: (law x, law y, grid size), all at
# eta 1e-3; its fifth, point:c=1.5 boxplus bernoulli, is its atoms alone
PERFBENCH_ANALYTIC = [
    (("arcsine", {}), ("arcsine", {}), 64),
    (("marchenko_pastur", {"lam": 1.0}), ("bernoulli", {}), 64),
    (("semicircle", {}), ("bernoulli", {}), 64),
    (("bernoulli", {}), ("bernoulli", {}), 256),
]


@pytest.mark.parametrize("x,y,grid", PERFBENCH_ANALYTIC,
                         ids=lambda c: c[0] if isinstance(c, tuple) else str(c))
def test_free_clt_start_computes_the_semicircle_records_bytes(monkeypatch, x, y, grid):
    # the start's unit semicircle builds no record, and moves no byte
    seen = []
    unit = freeconv._unit_semicircle
    monkeypatch.setattr(freeconv, "_unit_semicircle", lambda u: seen.append(u) or unit(u))
    free_convolve_analytic(named_input(x[0], **x[1]), named_input(y[0], **y[1]),
                           grid_size=grid)
    (u,) = seen
    assert unit(u).tobytes() == named_cauchy("semicircle", r=2.0)(u)[0].tobytes()


@pytest.mark.parametrize("x,y,hint,eta,exact", [
    # Bernoulli boxplus Bernoulli is the arcsine law, with G' = -z G^3
    (("bernoulli", {}), ("bernoulli", {}), (-2.4, 2.4), 1e-3,
     lambda z: named_cauchy("arcsine")(z)[1]),
    (("bernoulli", {}), ("bernoulli", {}), (-2.4, 2.4), 1e-1,
     lambda z: named_cauchy("arcsine")(z)[1]),
    # (delta_0.5 + delta_2.5)/2: the point in its gap at 1.5 is solved swapped
    (("point", {"c": 1.5}), ("bernoulli", {}), (0.3, 2.7), 1e-4,
     lambda z: -0.5 / (z - 0.5) ** 2 - 0.5 / (z - 2.5) ** 2),
], ids=["bernoulli+bernoulli-1e-3", "bernoulli+bernoulli-1e-1", "point+bernoulli-1e-4"])
def test_subordination_derivative_matches_closed_forms(x, y, hint, eta, exact):
    cauchy_x, cauchy_y = _evaluator(x, False), _evaluator(y, False)
    z = np.linspace(*hint, 129) + 1j * eta
    clt = [_mean_variance(law) for law in (x, y)]
    for start in (None, freeconv._free_clt_start(z, *clt)):
        solver = SolverCounters()
        _, gp = freeconv._subordinate(z, cauchy_x, cauchy_y, solver, start=start)
        want = exact(z)
        assert np.max(np.abs(gp - want) / np.abs(want)) < 1e-9
        if x[0] == "point":
            assert solver.iterations > freeconv.SWAP_ROUNDS  # the swapped branch ran


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0, 4.0])
def test_power_map_gives_kesten_mckay(t):
    # arcsine^{boxplus t} is the Kesten-McKay law of q = 2t (the free-group
    # walk's spectral law at integer t), read as -Im G/pi just above the axis
    q = 2.0 * t
    x = np.linspace(-0.75, 0.75, 7) * 2.0 * math.sqrt(q - 1.0)
    z = x + 1e-10j
    exact = q * np.sqrt(4.0 * (q - 1.0) - x * x) / (2.0 * math.pi * (q * q - x * x))
    # arcsine has mean 0 and variance 2
    for start in (None, freeconv._free_clt_start(z, (0.0, 2.0), (0.0, 2.0 * (t - 1.0)))):
        solver = SolverCounters()
        g, _ = freeconv._power_subordinate(z, named_cauchy("arcsine"), t, solver, start=start)
        assert np.max(np.abs(-g.imag / math.pi - exact)) <= 1e-9
        assert solver.residual <= freeconv.SOLVE_TOL


def test_power_map_at_t_1_is_the_input():
    cauchy = named_cauchy("arcsine")
    z = np.linspace(-3.0, 3.0, 61) + 1e-3j
    solver = SolverCounters()
    g, gp = freeconv._power_subordinate(z, cauchy, 1.0, solver)
    want, want_p = cauchy(z)
    assert g.tobytes() == want.tobytes()
    assert gp.tobytes() == want_p.tobytes()
    assert solver.iterations == 1


@pytest.mark.parametrize("t", [0.5, math.inf, math.nan])
def test_power_below_1_or_not_finite_is_rejected(t):
    with pytest.raises(ValueError, match="power t"):
        freeconv.free_power_analytic(named_input("arcsine"), t)


def _kesten_mckay_q4(t):
    # arcsine boxplus arcsine = Bernoulli^(boxplus 4): the 4-regular tree's law
    return 4.0 * np.sqrt(np.maximum(12.0 - t * t, 0.0)) / (2.0 * math.pi * (16.0 - t * t))


def _semicircle_variance_2(t):
    return np.sqrt(np.maximum(8.0 - t * t, 0.0)) / (4.0 * math.pi)


@pytest.mark.parametrize("law,exact,edge", [
    ("semicircle", _semicircle_variance_2, math.sqrt(8.0)),
    ("arcsine", _kesten_mckay_q4, math.sqrt(12.0)),
], ids=["semicircle+semicircle", "arcsine+arcsine"])
def test_one_height_inversion_is_second_order_in_eta(law, exact, edge):
    # (eta Re G' - Im G)/pi leaves an eta^2 error inside the support: it falls
    # by 4 per halving of eta
    mu = named_input(law)
    errors = []
    for eta in (4e-2, 2e-2, 1e-2):
        out = free_convolve_analytic(mu, mu, grid_size=512, eta=eta).measure
        t = out.grid
        inner = np.abs(t) <= 0.5 * edge
        raw = out.samples * out.raw_mass  # the density before normalising
        errors.append(np.max(np.abs(raw[inner] - exact(t[inner]))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_median_iterations_is_a_round_count_of_the_solve():
    b, st = make_named("bernoulli"), make_named("sato_tate", 128)
    res = free_convolve_analytic(b, st, grid_size=128)
    assert 1 <= res.solver.median_iterations <= res.solver.iterations
    counters = SolverCounters()
    assert counters.median_iterations == 0
    ones = np.ones(3)
    counters.add(np.full(1, 1j), ones[:1], 2)
    counters.add(np.full(3, 2j), ones, 7)
    assert counters.median_iterations == 7  # the lower median of 2, 7, 7, 7
    counters.add(np.full(2, 3j), ones[:2], 1)
    assert counters.median_iterations == 2  # of 1, 1, 2, 7, 7, 7


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
    assert info.value.failed == 1
    # in a batch, every point near the axis fails and the far one converges
    zs = np.array([0.5 + 1e-3j, -1.2 + 1e-3j, 1.9 + 5e-4j, 1e3j])
    cauchy_b = cauchy_evaluator(b)
    with pytest.raises(ContinuationError, match="at 3 point") as info:
        freeconv._subordinate(zs, cauchy_b, cauchy_b, SolverCounters())
    assert info.value.failed == 3
    assert info.value.z in zs[:3]


def test_mu_boxplus_mu_sums_its_moments_once(monkeypatch):
    calls = {"moments": 0, "cumulants": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(freeconv, "measure_moments", counted("moments", freeconv.measure_moments))
    monkeypatch.setattr(freeconv, "free_cumulants_from_moments",
                        counted("cumulants", freeconv.free_cumulants_from_moments))
    mu = make_named("arcsine", 64)
    once = free_convolve_analytic(mu, mu, grid_size=64)
    assert calls == {"moments": 1, "cumulants": 1}
    twice = free_convolve_analytic(mu, make_named("arcsine", 64), grid_size=64)
    assert calls == {"moments": 3, "cumulants": 3}
    assert once.moments == twice.moments
    assert once.measure.samples.tobytes() == twice.measure.samples.tobytes()


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
    # the cell measure's moments with the closed-form G
    sc = freeconv._as_input(make_named("semicircle", 256))
    sc = sc._replace(cauchy=named_cauchy("semicircle"))
    res = free_convolve_analytic(sc, sc, grid_size=512, eta=1e-3)
    r = 2.0 * math.sqrt(2.0)
    t = res.measure.grid
    exact = 2.0 / (math.pi * r * r) * np.sqrt(np.maximum(r * r - t * t, 0.0))
    assert np.max(np.abs(res.measure.samples - exact)) < 1e-4
    assert res.solver.residual < 1e-8


def test_atom_law_inputs_give_the_bytes_of_their_measures():
    # the pole sum is the kernel's, and the quadrature moments of atoms are exact
    by_law = free_convolve_analytic(named_input("bernoulli"), named_input("bernoulli"),
                                    grid_size=128)
    by_cells = free_convolve_analytic(make_named("bernoulli"), make_named("bernoulli"),
                                      grid_size=128)
    assert by_law.moments == by_cells.moments
    assert by_law.solver == by_cells.solver
    assert by_law.measure.samples.tobytes() == by_cells.measure.samples.tobytes()


@pytest.mark.parametrize("x,y", [
    (("arcsine", {}), ("arcsine", {})),
    (("marchenko_pastur", {"lam": 0.5}), ("semicircle", {"r": 3.0})),
    (("point", {"c": 1.5}), ("marchenko_pastur", {"lam": 1.0})),
])
def test_closed_form_inputs_convolve_their_exact_moments(monkeypatch, x, y):
    # no quadrature: the float recursion runs on the exact moments
    monkeypatch.setattr(freeconv, "measure_moments", None)
    res = free_convolve_analytic(named_input(x[0], **x[1]), named_input(y[0], **y[1]),
                                 grid_size=128)
    exact = free_convolve_moments(named_moments(x[0], 6, **x[1]), named_moments(y[0], 6, **y[1]))
    assert max(abs(a - float(b)) / max(1.0, abs(b)) for a, b in zip(res.moments, exact)) < 1e-14
    assert abs(res.measure.total_mass() - 1.0) < 1e-12


@pytest.mark.parametrize("x,y", [
    (("arcsine", {}), ("arcsine", {})),
    (("marchenko_pastur", {"lam": 1.0}), ("bernoulli", {})),
    (("point", {"c": 1.5}), ("marchenko_pastur", {"lam": 0.25})),  # an atom and a density
])
def test_analytic_output_measure_is_built_once(monkeypatch, x, y):
    # the inversion builds the output, atoms included and normalised, and the
    # mass defect is read from that one build
    builds = []
    init = measures.Measure.__init__

    def counted(self, *args, **kwargs):
        builds.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(measures.Measure, "__init__", counted)
    res = free_convolve_analytic(named_input(x[0], **x[1]), named_input(y[0], **y[1]),
                                 grid_size=64)
    assert len(builds) == 1
    assert abs(res.measure.total_mass() - 1.0) < 1e-12
    assert res.mass_defect == 1.0 - res.measure.raw_mass
    assert abs(res.mass_defect) < 1e-2


def test_evaluator_handed_in_replaces_the_inputs_own():
    calls = []
    closed = named_cauchy("arcsine")

    def counted(z):
        calls.append(z.size)
        return closed(z)

    arcsine = named_input("arcsine")
    res = free_convolve_analytic(arcsine._replace(cauchy=counted), arcsine, grid_size=64)
    assert calls
    plain = free_convolve_analytic(arcsine, arcsine, grid_size=64)
    assert res.measure.samples.tobytes() == plain.measure.samples.tobytes()
