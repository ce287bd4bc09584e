"""Random-matrix ensembles, Wick/genus expansions, Weingarten calculus."""

import math
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import mc_oracles
from freeprob import rmt
from freeprob.partitions import Permutation, is_geodesic
from freeprob.rmt import freeness_experiment, weingarten_series, wick_trace_moment
from mc_oracles import EnsembleSpec, MCEstimate, mc_word_moment, sample

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def dfact(n):
    out = 1
    for j in range(1, n, 2):
        out *= j
    return out


def test_wick_expansion_small_cases():
    assert wick_trace_moment(2) == {0: 1}
    assert wick_trace_moment(4) == {0: 2, 2: 1}
    assert wick_trace_moment(6) == {0: 5, 2: 10}
    assert wick_trace_moment(8) == {0: 14, 2: 70, 4: 21}


def test_wick_evaluated_at_finite_n():
    # E tr X^4 = 2 + 1/N^2
    assert wick_trace_moment(4, N=5) == Fraction(51, 25)
    assert wick_trace_moment(4, N=10) == Fraction(201, 100)
    assert wick_trace_moment(3, N=7) == 0
    assert wick_trace_moment(3) == {}


def test_wick_at_n_equals_one_counts_all_pairings():
    for k in range(1, 9):
        assert wick_trace_moment(2 * k, N=1) == dfact(2 * k)


def test_wick_guards():
    with pytest.raises(ValueError):
        wick_trace_moment(-2)
    with pytest.raises(ValueError):
        wick_trace_moment(22)
    for n in (3, 4):
        with pytest.raises(ValueError, match="N must be >= 1"):
            wick_trace_moment(n, 0)


def test_wick_counts_the_pairings_by_genus():
    # the coefficient of N^-2g counts the pairings of [2k] of genus g
    for k in range(1, 7):
        exp = wick_trace_moment(2 * k)
        assert exp[0] == CATALAN[k]  # planar pairings lead
        assert sum(exp.values()) == dfact(2 * k)  # all pairings, over every genus


def test_weingarten_transposition_exact():
    e = weingarten_series(Permutation((2, 1)))
    assert e.leading == -1
    for N in (4, 10, 50):
        v = e.evaluate(N)
        assert v.exact
        assert v.error_bound == 0.0
        assert v.value == Fraction(-1, N * (N * N - 1))


def test_weingarten_identities_exact():
    one = weingarten_series(Permutation((1,))).evaluate(9)
    assert one.exact and one.value == Fraction(1, 9)
    two = weingarten_series(Permutation((1, 2))).evaluate(9)
    assert two.exact and two.value == Fraction(1, 80)
    # S(1) at N = 1: the resummation factor N^2/(N^2 - 1) is not formed
    at_one = weingarten_series(Permutation((1,))).evaluate(1)
    assert at_one.exact and at_one.value == 1


def test_weingarten_s3_within_error_bound():
    cases = [
        # (images, exact value at N)
        ((2, 3, 1), lambda N: Fraction(2, N * (N * N - 1) * (N * N - 4))),
        ((1, 2, 3), lambda N: Fraction(N * N - 2, N * (N * N - 1) * (N * N - 4))),
        ((2, 1, 3), lambda N: Fraction(-1, (N * N - 1) * (N * N - 4))),
    ]
    for images, exact in cases:
        e = weingarten_series(Permutation(images))
        for N in (6, 12):
            v = e.evaluate(N)
            err = abs(float(v.value - exact(N)))
            assert err <= v.error_bound
            assert v.error_bound < 1e-6


def test_weingarten_series_parity_and_leading():
    for images in [(2, 1), (2, 3, 1), (1, 2, 3), (2, 1, 4, 3)]:
        e = weingarten_series(Permutation(images))
        d = e.permutation.cayley_distance
        assert all(e.raw[r] == 0 for r in range(d))  # below Cayley distance
        assert all(e.raw[r] == 0 for r in range(len(e.raw)) if (r - d) % 2)
        assert e.leading == (-1) ** d * e.raw[d]


def test_weingarten_guards():
    e = weingarten_series(Permutation((2, 1)))
    with pytest.raises(ValueError):
        e.evaluate(1)  # needs N >= n
    with pytest.raises(ValueError):
        weingarten_series(Permutation(tuple(range(2, 10)) + (1,)))  # n > 8
    for R in (0, -1, 21):  # outside cayley_distance (1)..20
        with pytest.raises(ValueError, match="must lie in 1..20"):
            weingarten_series(Permutation((2, 1)), R=R)


def test_sample_is_deterministic_and_structured():
    spec = EnsembleSpec("gue", 25, seed=7)
    a = sample(spec, trial=3)
    b = sample(spec, trial=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample(spec, trial=4))
    assert np.allclose(a, a.conj().T)  # hermitian

    u = sample(EnsembleSpec("cue", 30, seed=1))
    assert np.max(np.abs(u @ u.conj().T - np.eye(30))) < 1e-12

    g = sample(EnsembleSpec("ginibre", 12, seed=1))
    assert g.shape == (12, 12) and g.dtype == np.complex128

    d = sample(EnsembleSpec("deterministic", 3, payload=np.diag([1.0, 2.0, 3.0])))
    assert np.array_equal(d, np.diag([1.0, 2.0, 3.0]))


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("goe", 10)
    with pytest.raises(ValueError):
        EnsembleSpec("gue", 0)
    with pytest.raises(ValueError):
        EnsembleSpec("deterministic", 4)  # payload required
    with pytest.raises(ValueError):
        EnsembleSpec("deterministic", 4, payload=np.eye(3))  # wrong shape
    with pytest.raises(ValueError):
        EnsembleSpec("deterministic", 4, payload=(1.0,) * 4)  # not a matrix
    with pytest.raises(ValueError):
        EnsembleSpec("gue", 8, payload=np.eye(8))  # payload is deterministic-only


def test_mc_estimate_rejects_a_negative_stderr():
    with pytest.raises(ValueError, match="stderr must be non-negative"):
        MCEstimate(mean=1.0, stderr=-1e-3, trials=4, seed=0)
    est = MCEstimate(1j, 0.0, 4, 7)
    assert (est.mean, est.stderr, est.trials, est.seed) == (1j, 0.0, 4, 7)


def test_gue_covariance_normalization():
    # E (1/N) tr X^2 -> 1 under the 1/N covariance scaling
    est = mc_word_moment([EnsembleSpec("gue", 150, seed=11)], [0, 0], trials=60)
    assert abs(est.mean.real - 1) < 4 * est.stderr + 1e-3
    assert abs(est.mean.imag) < 1e-12


def test_cue_word_trace_is_exactly_unit():
    # (1/N) tr U U* = 1 for every unitary sample, so stderr is 0
    est = mc_word_moment(
        [EnsembleSpec("cue", 40, seed=5)], [(0, False), (0, True)], trials=8
    )
    assert abs(est.mean - 1) < 1e-13
    assert est.stderr < 1e-13


def test_mc_word_moment_worker_count_is_invisible():
    specs = [EnsembleSpec("gue", 30, seed=3), EnsembleSpec("gue", 30, seed=4)]
    word = [0, 1, 0, 1]
    one = mc_word_moment(specs, word, trials=24, workers=1)
    two = mc_word_moment(specs, word, trials=24, workers=2)
    eight = mc_word_moment(specs, word, trials=24, workers=8)
    assert one.mean == two.mean == eight.mean
    assert one.stderr == two.stderr == eight.stderr


def test_gue_pair_looks_free():
    rep = freeness_experiment("gue_gue", 60, 80, 6, seed=9)
    assert {r.label for r in rep.rows} >= {"xx", "xy", "yy", "xyxy", "xxyy", "xyxyxy"}
    assert rep.max_abs_z() < 4
    xy = next(r for r in rep.rows if r.label == "xyxy")
    assert xy.predicted == 0.0


def test_gue_plus_diagonal_matches_convolution():
    rep = freeness_experiment("gue_deterministic", 60, 60, 6, seed=10)
    preds = {r.label: r.predicted for r in rep.rows}
    assert preds == {"m1": 0.0, "m2": 2.0, "m3": 0.0, "m4": 7.0, "m5": 0.0, "m6": 30.0}
    assert rep.max_abs_z() < 4


def test_rotated_diagonal_matches_convolution():
    rep = freeness_experiment("rotated_diagonal", 60, 60, 4, seed=11)
    preds = {r.label: r.predicted for r in rep.rows}
    assert preds == {"m1": 0.0, "m2": 2.0, "m3": 0.0, "m4": 6.0}
    assert rep.max_abs_z() < 4


def test_freeness_experiment_validation():
    with pytest.raises(ValueError):
        freeness_experiment("haar_haar", 20, 20, 4)
    with pytest.raises(ValueError):
        freeness_experiment("gue_gue", 20, 1, 4)  # needs >= 2 trials
    for kind in ("gue_gue", "gue_deterministic"):
        with pytest.raises(ValueError, match="N must be >= 2"):
            freeness_experiment(kind, 1, 20, 4)
    with pytest.raises(ValueError):
        freeness_experiment("rotated_diagonal", 21, 20, 4)  # N must be even


def contraction_cycles(rho: Permutation, sigma: Permutation) -> list[int]:
    """Lengths of the cycles whose traces make up the index contraction of the
    gluing (rho, sigma) in E tr[(U D U* D)^2].

    The row gluing rho ties the indices of D around the cycles of rho gamma,
    gamma the trace 2-cycle, and the column gluing sigma ties them around the
    cycles of sigma, so the contraction is T(N) = prod_k tr D^k over these
    lengths k.
    """
    return [len(c) for c in (rho * Permutation.full_cycle(2)).cycles() + sigma.cycles()]


def geodesic_order_assembly() -> tuple:
    """Order-N^0 part of E tr[(U D U* D)^2], summed two ways.

    D is the diagonal alternating 1, 2 (deliberately non-centred so every
    order-N^0 term is non-zero).  The unitary expectation expands over row
    and column gluings (rho, sigma) in S(2) x S(2); each pair contributes an
    index-contraction polynomial

        T(N) = prod_{c in cyc(rho gamma)} t_|c|(N) prod_{c in cyc(sigma)} t_|c|(N),

    t_k(N) = tr D^k = N (1 + 2^k)/2 at even N, so T has degree
    #cyc(rho gamma) + #cyc(sigma) and leading coefficient the product of the
    (1 + 2^|c|)/2.  It is multiplied by the leading Weingarten weight
    a(sigma rho^{-1}) N^{-2-|sigma rho^{-1}|}, with one more 1/N from the
    normalized trace.  Returns the order-N^0 sum over all pairs and the same
    sum restricted to pairs on a Cayley geodesic id -> sigma -> rho ->
    gamma^{-1}, gamma the trace 2-cycle.  The two agree: off-geodesic pairs
    only enter at negative powers.  (Both equal 99/16, the free-product value
    tau(abab) = m2 m1^2 + m1^2 m2 - m1^4 at m1 = 3/2, m2 = 5/2.)
    """
    perms = [Permutation.identity(2), Permutation.transposition(2, 1, 2)]
    gamma_inv = Permutation.full_cycle(2).inverse()
    total_all = Fraction(0)
    total_geo = Fraction(0)
    for rho in perms:
        for sig in perms:
            lengths = contraction_cycles(rho, sig)
            wg_pi = sig * rho.inverse()
            order = len(lengths) - (2 + wg_pi.cayley_distance) - 1
            if order > 0:
                raise AssertionError("contraction exceeds order N^0; wiring bug")
            if order == 0:
                lead = math.prod(Fraction(1 + 2**k, 2) for k in lengths)
                term = lead * weingarten_series(wg_pi).leading
                total_all += term
                if is_geodesic(sig, rho, gamma_inv):
                    total_geo += term
    return total_all, total_geo


def test_geodesic_order_assembly_sums_match():
    full, geo = geodesic_order_assembly()
    assert full == Fraction(99, 16)
    assert geo == Fraction(99, 16)


def brute_contraction(rho, sig, nn):
    """Index sum of the gluing (rho, sigma) in E tr[(U D U* D)^2] at dimension
    nn, D = diag(1, 2, 1, 2, ...), by running over all four indices."""
    dvec = [1 + (i % 2) for i in range(nn)]
    acc = 0
    for a in range(nn):
        for c in range(nn):
            k = (c, a)
            if a != k[rho(1) - 1] or c != k[rho(2) - 1]:
                continue
            for b in range(nn):
                for bp in range(nn):
                    ell = (b, bp)
                    if b != ell[sig(1) - 1] or bp != ell[sig(2) - 1]:
                        continue
                    acc += dvec[a] * dvec[b] * dvec[c] * dvec[bp]
    return acc


@pytest.mark.parametrize("nn", [4, 6])
def test_contraction_is_a_product_of_traces_over_cycles(nn):
    perms = [Permutation.identity(2), Permutation.transposition(2, 1, 2)]
    for rho in perms:
        for sig in perms:
            # tr D^k = nn (1 + 2^k) / 2 for even nn
            traces = [Fraction(nn * (1 + 2**k), 2) for k in contraction_cycles(rho, sig)]
            assert brute_contraction(rho, sig, nn) == math.prod(traces)


# ---------------------------------------------------------------------------
# Enumeration oracles for the recursions in rmt (small n only).


def iter_pairing_images(n):
    """Yield each pairing of {1..n} as a 0-based involution image array."""
    images = list(range(n))

    def rec(free):
        if not free:
            yield tuple(images)
            return
        a = free[0]
        rest = free[1:]
        for idx, b in enumerate(rest):
            images[a], images[b] = b, a
            yield from rec(rest[:idx] + rest[idx + 1 :])
            images[a], images[b] = a, b

    yield from rec(list(range(n)))


def pairing_cycle_histogram(n):
    """counts[c] = number of pairings pi of [n] with c cycles in gamma*pi,
    gamma the forward n-cycle."""
    counts = {}
    for images in iter_pairing_images(n):
        seen = [False] * n
        c = 0
        for start in range(n):
            if seen[start]:
                continue
            c += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = (images[k] + 1) % n
        counts[c] = counts.get(c, 0) + 1
    return counts


@lru_cache(maxsize=None)
def monotone_count(images, cap, r):
    """Monotone factorizations of the permutation with these one-line images
    into r transpositions (s t), s < t <= cap, by stripping the last
    (largest-t) factor."""
    if r == 0:
        return int(images == tuple(range(1, len(images) + 1)))
    total = 0
    for t in range(2, cap + 1):
        for s in range(1, t):
            nxt = list(images)  # images of pi * (s t)
            nxt[s - 1], nxt[t - 1] = nxt[t - 1], nxt[s - 1]
            total += monotone_count(tuple(nxt), t, r - 1)
    return total


def gram_schmidt_haar(rng, n):
    """Modified Gram-Schmidt of a complex Ginibre; columns normalized with
    positive real diagonal R.  Columns that come out nearly dependent are
    re-orthogonalized once."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.empty_like(a)
    for j in range(n):
        v = a[:, j].copy()
        norm0 = np.linalg.norm(v)
        for i in range(j):
            v -= (q[:, i].conj() @ v) * q[:, i]
        if np.linalg.norm(v) < 1e-8 * norm0:
            for i in range(j):
                v -= (q[:, i].conj() @ v) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q


def test_harer_zagier_matches_pairing_enumeration():
    for n in range(1, 13):
        if n % 2:
            assert wick_trace_moment(n) == {}
            continue
        hist = pairing_cycle_histogram(n)
        assert wick_trace_moment(n) == {n // 2 + 1 - c: cnt for c, cnt in hist.items()}


def test_character_formula_matches_factorization_search():
    for n in range(1, 7):
        # one permutation per cycle type: consecutive cycles of the given lengths
        for shape in rmt._integer_partitions(n):
            cycles, start = [], 1
            for length in shape:
                cycles.append(tuple(range(start, start + length)))
                start += length
            perm = Permutation.from_cycles(n, cycles)
            R = perm.cayley_distance + 10
            e = weingarten_series(perm, R)
            assert e.raw == tuple(monotone_count(perm.images, n, r) for r in range(R + 1))


def test_qr_haar_matches_gram_schmidt():
    for seed, trial in ((0, 0), (7, 3), (101, 19)):
        q = mc_oracles._haar_unitary(rmt._rng(seed, trial), 50)
        ref = gram_schmidt_haar(rmt._rng(seed, trial), 50)
        assert np.max(np.abs(q - ref)) < 1e-12


# ---------------------------------------------------------------------------
# The multiplied-out trial arithmetic that the trace identities replace.


def direct_power_moments(m, degree):
    """tr(m^k)/N for k = 1..degree by repeated multiplication."""
    n = m.shape[0]
    power = np.eye(n, dtype=np.complex128)
    out = []
    for _ in range(degree):
        power = power @ m
        out.append(np.trace(power).real / n)
    return np.array(out)


def gram_solve_moments(g, degree):
    """tr(m^k)/N for k = 1..degree, m = U D U* + D, D = diag(1, -1, 1, ...),
    from any basis g (N x N/2, full rank) of the span of U's columns where
    D = +1, the dense route that the Jacobi model replaced.

    With ge, go the rows of g where D = +1, -1, A = ge* ge and C = g* g: the
    Gram matrix W = qe* qe of an orthonormal basis q = g R^-1 (C = R* R) is
    similar to M = C^-1 A (Bjorck & Golub, Math. Comp. 27, 1973), so
    tr(m^(2j)) = 2 4^j tr(M^j) without orthonormalising.
    """
    n = g.shape[0]
    ge, go = g[::2], g[1::2]
    a = ge.conj().T @ ge
    c = a + go.conj().T @ go
    m = np.linalg.solve(c, a)
    power, traces = np.eye(n // 2), []
    for _ in range(degree // 2):
        power = power @ m
        traces.append(np.trace(power).real)
    out = np.zeros(degree)
    out[1::2] = 2.0 * 4.0 ** np.arange(1, degree // 2 + 1) * np.array(traces) / n
    return out


@pytest.mark.parametrize("N", [20, 50])
def test_half_rank_reduction_matches_power_loop(N):
    d = rmt._bernoulli_diag(N)
    for seed, trial in ((0, 0), (5, 2), (31, 7)):
        u = mc_oracles._haar_unitary(rmt._rng(seed, trial), N)
        direct = direct_power_moments((u * d) @ u.conj().T + np.diag(d), 8)
        # any basis of the span will do: the orthonormal one, and a skewed one
        r = mc_oracles._complex_normal(rmt._rng(seed, trial, 1), (N // 2, N // 2))
        for basis in (u[:, ::2], u[:, ::2] @ r):
            reduced = gram_solve_moments(basis, 8)
            assert np.all(np.abs(reduced - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))
            assert np.all(reduced[0::2] == 0.0)


@pytest.mark.parametrize("N", [20, 50])
def test_rotated_diagonal_trials_match_orthonormalised_draws(N):
    seed, trials, degree = 3, 6, 8
    d = rmt._bernoulli_diag(N)
    # the oracle against the thin QR of each draw: U D U* = 2 q q* - I
    for t in range(trials):
        g = mc_oracles._complex_normal(rmt._rng(seed, t, 0), (N, N // 2))
        q = np.linalg.qr(g)[0]
        want = direct_power_moments(2.0 * q @ q.conj().T - np.eye(N) + np.diag(d), degree)
        got = gram_solve_moments(g, degree)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    # each trial's rows against the singular values of that trial's own B
    powers = 2 * np.arange(1, degree // 2 + 1)
    rows = []
    for t in range(trials):
        diag, sup = rmt._jacobi_bidiagonal(rmt._rng(seed, t, 0), N // 2)
        sigma = np.linalg.svd(np.diag(diag) + np.diag(sup, 1), compute_uv=False)
        want = np.zeros(degree)
        want[1::2] = [2.0 * np.sum((2.0 * sigma) ** p) / N for p in powers]
        got = rmt._bidiagonal_moments(diag, sup, degree)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert np.all(got[0::2] == 0.0)
        rows.append(got)
    rep = freeness_experiment("rotated_diagonal", N, trials, degree, seed=seed)
    assert np.allclose([row.empirical for row in rep.rows], np.mean(rows, axis=0),
                       rtol=1e-14, atol=0.0)


def test_rotated_diagonal_rows_match_the_gram_solve_oracle_in_law():
    # two independent samples, the Jacobi model's and the dense Ginibre
    # route's, estimate the same m2, m4, m6 at N = 8
    N, trials, degree = 8, 3000, 6
    rep = freeness_experiment("rotated_diagonal", N, trials, degree, seed=41)
    rng = rmt._rng(42)
    oracle = np.array([gram_solve_moments(mc_oracles._complex_normal(rng, (N, N // 2)), degree)
                       for _ in range(trials)])
    for j in (1, 3, 5):
        mean, err = rmt._mean_stderr(oracle[:, j])
        row = rep.rows[j]
        assert abs(row.empirical - mean) < 4 * math.hypot(row.stderr, err)


def test_gue_tridiagonal_form_has_the_gue_trace_law():
    # E tr T^k / N at N = 4 against the exact genus expansion
    N, draws = 4, 10000
    rng = rmt._rng(43)
    t = np.zeros((draws, N, N))
    for i in range(draws):
        d, e = rmt._gue_tridiagonal(rng, N)
        t[i] = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    t2 = t @ t
    for k, power in ((2, t2), (4, t2 @ t2), (6, t2 @ t2 @ t2)):
        mean, err = rmt._mean_stderr(np.trace(power, axis1=1, axis2=2) / N)
        assert abs(mean - float(wick_trace_moment(k, N))) < 4 * err


@pytest.mark.parametrize("N", [2, 4, 8])
def test_jacobi_model_has_the_haar_principal_angle_law(N):
    # E tr W = tr P tr Q / N = n/2 for two rank-n projections P, Q = U P U*;
    # E tr W^2 = E tr (PQ)^2 = 2n^3 Wg(e) + (n^4 + n^2) Wg((12)) by Weingarten
    n, draws = N // 2, 6000
    wg_e = float(weingarten_series(Permutation((1, 2))).evaluate(N).value)
    wg_t = float(weingarten_series(Permutation((2, 1))).evaluate(N).value)
    rng = rmt._rng(44, N)
    b = np.zeros((draws, n, n))
    for i in range(draws):
        diag, sup = rmt._jacobi_bidiagonal(rng, n)
        b[i] = np.diag(diag) + np.diag(sup, 1)
    w = np.transpose(b, (0, 2, 1)) @ b
    for values, want in (
        (np.trace(w, axis1=1, axis2=2), n / 2),
        (np.sum(w * w, axis=(1, 2)), 2 * n**3 * wg_e + (n**4 + n**2) * wg_t),
    ):
        mean, err = rmt._mean_stderr(values)
        assert abs(mean - want) < 4 * err


def test_jacobi_model_at_n_one_is_uniform():
    # N = 2: W = c_1^2 ~ Beta(1, 1), and there is no c' to draw
    draws = 4000
    rng = rmt._rng(45)
    w = np.empty(draws)
    for i in range(draws):
        diag, sup = rmt._jacobi_bidiagonal(rng, 1)
        assert diag.shape == (1,) and sup.shape == (0,)
        w[i] = diag[0] ** 2
    w.sort()
    grid = np.arange(1, draws + 1) / draws
    ks = max(np.max(grid - w), np.max(w - (grid - 1.0 / draws)))
    assert ks * math.sqrt(draws) < 1.95  # Kolmogorov-Smirnov at level 0.001


@pytest.mark.parametrize("shape", [(1,), (7, 3), (40, 20)])
def test_complex_normal_fills_the_two_draws_in_place(shape):
    rng, ref = rmt._rng(9, 4), rmt._rng(9, 4)
    z = mc_oracles._complex_normal(rng, shape)
    assert np.array_equal(z, ref.standard_normal(shape) + 1j * ref.standard_normal(shape))
    assert rng.standard_normal() == ref.standard_normal()


def test_power_traces_match_matrix_power():
    N = 30
    x = sample(EnsembleSpec("gue", N, seed=2))
    h = x + np.diag(rmt._bernoulli_diag(N))
    # and a real symmetric tridiagonal, as the Jacobi model passes
    diag, sup = rmt._jacobi_bidiagonal(rmt._rng(2), N)
    b = np.diag(diag) + np.diag(sup, 1)
    for mat in (h, b.T @ b):
        for degree in (1, 2, 5, 8):
            got = rmt._power_traces(mat, degree)
            want = [np.trace(np.linalg.matrix_power(mat, k)).real for k in range(1, degree + 1)]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * N)


GUE_PAIR_WORDS = [(0, 0), (0, 1), (1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1, 0, 1)]


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("N", [2, 3, 30])
def test_gue_pair_traces_match_products(N, degree):
    d, e = rmt._gue_tridiagonal(rmt._rng(3), N)
    x = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    # y is the GUE that _gue builds from the same normals g
    g = rmt._rng(4).standard_normal((N, N))
    y = rmt._gue(rmt._rng(4), N)
    vals = rmt._gue_pair_traces(d, e, g, degree)
    xy = x @ y
    want = {
        (0, 0): np.trace(x @ x),
        (0, 1): np.trace(xy),
        (1, 1): np.trace(y @ y),
        (0, 1, 0, 1): np.trace(xy @ xy),
        (0, 0, 1, 1): np.sum((x @ x) * (y @ y).T),
        (0, 1, 0, 1, 0, 1): np.trace(xy @ xy @ xy),
    }
    assert list(vals) == [w for w in GUE_PAIR_WORDS if len(w) <= degree]
    for word in vals:
        value = want[word]
        assert abs(vals[word] - value) <= 1e-12 * max(1.0, abs(value))
    # no yx word: by cyclicity it is the xy trace again
    assert abs(np.trace(y @ x) - vals[(0, 1)]) <= 1e-12 * max(1.0, abs(vals[(0, 1)]))


@pytest.mark.parametrize("N", [2, 3, 30])
def test_gue_pair_traces_in_reused_scratch_keep_their_bits(N):
    # the formation as it reads with a temporary per product, against stale
    # scratch that every write must fully cover
    d, e = rmt._gue_tridiagonal(rmt._rng(3), N)
    g = rmt._rng(4).standard_normal((N, N))
    p = d[:, None] * g
    p[:-1] += e[:, None] * g[1:]
    p[1:] += e[:, None] * g[:-1]
    q = g * d
    q[:, :-1] += g[:, 1:] * e
    q[:, 1:] += g[:, :-1] * e
    pp = p @ p
    scratch = np.full((3, N, N), np.nan)
    for degree in (7, 6, 4, 2):
        vals = rmt._gue_pair_traces(d, e, g, degree, scratch)
        assert vals == rmt._gue_pair_traces(d, e, g, degree)
        assert np.array_equal(scratch[0], p)
        if degree >= 4:
            assert np.array_equal(scratch[1], q)
        if degree >= 6:
            assert np.array_equal(scratch[2], pp)
    rng = rmt._rng(4)
    assert np.array_equal(rng.standard_normal(out=np.empty((N, N))), g)


def test_rotated_diagonal_odd_rows_are_exactly_zero():
    for seed in (0, 87, 106):
        rep = freeness_experiment("rotated_diagonal", 40, 10, 6, seed=seed)
        for row in rep.rows[0::2]:
            assert (row.empirical, row.stderr, row.predicted, row.z) == (0.0, 0.0, 0.0, 0.0)
        assert all(row.stderr > 0 for row in rep.rows[1::2])


@pytest.mark.parametrize("kind", ["gue_gue", "gue_deterministic", "rotated_diagonal"])
def test_freeness_experiment_worker_count_is_invisible(kind):
    one = freeness_experiment(kind, 24, 9, 6, seed=12, workers=1)
    # switching threads as often as possible: a scratch array that two
    # workers shared would show in the rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 16):
            many = freeness_experiment(kind, 24, 9, 6, seed=12, workers=workers)
            assert one.rows == many.rows
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        freeness_experiment("gue_gue", 8, 4, 4, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        mc_word_moment([EnsembleSpec("gue", 8)], [0, 0], trials=4, workers=workers)


def jacobi_tridiagonal(seed, trial, n):
    """Diagonal and off-diagonal of W = B^T B for one Jacobi draw."""
    diag, sup = rmt._jacobi_bidiagonal(rmt._rng(seed, trial), n)
    w_diag = diag * diag
    w_diag[1:] += sup * sup
    return w_diag, diag[:-1] * sup


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_banded_power_traces_match_dense_ones(n):
    for degree in range(2, 13):
        w_diag, w_off = jacobi_tridiagonal(6, degree, n)
        w = np.diag(w_diag) + np.diag(w_off, 1) + np.diag(w_off, -1)
        want = rmt._power_traces(w, degree)
        got = rmt._tridiagonal_power_traces(w_diag, w_off, degree)
        assert got.shape == (degree,)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_stacked_rows_give_the_bits_of_single_rows(n):
    degree = 11
    draws = [rmt._jacobi_bidiagonal(rmt._rng(7, t), n) for t in range(5)]
    diags, sups = np.array([d for d, _ in draws]), np.array([s for _, s in draws])
    stacked = rmt._bidiagonal_moments(diags, sups, degree)
    assert stacked.shape == (5, degree)
    for row, (diag, sup) in zip(stacked, draws):
        assert np.array_equal(row, rmt._bidiagonal_moments(diag, sup, degree))


def test_rotated_diagonal_allocates_no_dense_matrix():
    # a dense W at N = 2000 would be 1000 x 1000 floats, 8 MB; the first,
    # small run loads numpy.random, which is not the experiment's memory
    freeness_experiment("rotated_diagonal", 4, 2, 8)
    tracemalloc.start()
    try:
        freeness_experiment("rotated_diagonal", 2000, 4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_gue_gue_rows_are_the_statistics_of_multiplied_out_words():
    # the draws are the tridiagonal x and the _gue y of each trial's streams;
    # only the rounding of the traces may differ from the dense words
    N, trials, degree, seed = 24, 9, 6, 12
    rep = freeness_experiment("gue_gue", N, trials, degree, seed=seed)
    per_trial = []
    for t in range(trials):
        d, e = rmt._gue_tridiagonal(rmt._rng(seed, t, 0), N)
        mats = [np.diag(d) + np.diag(e, 1) + np.diag(e, -1), rmt._gue(rmt._rng(seed, t, 1), N)]
        row = []
        for word in GUE_PAIR_WORDS:
            prod = np.eye(N)
            for c in word:
                prod = prod @ mats[c]
            row.append(np.trace(prod).real / N)
        per_trial.append(row)
    per_trial = np.array(per_trial)
    assert [r.label for r in rep.rows] == ["xx", "xy", "yy", "xyxy", "xxyy", "xyxyxy"]
    for j, row in enumerate(rep.rows):
        mean = per_trial[:, j].mean()
        stderr = per_trial[:, j].std(ddof=1) / math.sqrt(trials)
        assert abs(row.empirical - mean) <= 1e-12 * abs(mean)
        assert abs(row.stderr - stderr) <= 1e-12 * stderr


def test_run_trials_raises_the_lowest_failing_trial():
    done = []

    def run(t):
        if t in (3, 6):
            raise ValueError(f"trial {t}")
        done.append(t)

    for workers in (1, 2, 3):
        done.clear()
        with pytest.raises(ValueError, match="trial 3"):
            rmt._run_trials(run, 8, workers)
        # every worker stops at its own first failure, none runs a trial twice
        assert len(done) == len(set(done))
        assert {0, 1, 2} <= set(done) and not {3, 6} & set(done)
    # more workers than cores, switching threads as often as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran = []
        rmt._run_trials(ran.append, 400, 4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(400))


@pytest.mark.parametrize("N", [1, 7, 40])
def test_gue_draw_is_one_real_normal_matrix_symmetrised(N):
    h = sample(EnsembleSpec("gue", N, seed=13), trial=2)
    assert np.array_equal(h, h.conj().T)
    rng = rmt._rng(13, 2)
    g = rng.standard_normal((N, N))
    assert np.array_equal(h, ((g + g.T) + 1j * (g - g.T)) / (2 * math.sqrt(N)))
    # the draw used exactly N^2 normals: both streams continue alike
    used = rmt._rng(13, 2)
    mc_oracles._sample_rng(EnsembleSpec("gue", N, seed=13), used)
    assert used.standard_normal() == rng.standard_normal()


def test_gue_entry_second_moments_match_the_law():
    N, draws = 200, 20
    hs = np.array([sample(EnsembleSpec("gue", N, seed=21), trial=t) for t in range(draws)])
    iu = np.triu_indices(N, 1)
    off = hs[:, iu[0], iu[1]].ravel() * math.sqrt(N)
    diag = np.diagonal(hs, axis1=1, axis2=2).ravel() * math.sqrt(N)
    assert np.all(diag.imag == 0.0)
    # N x: real and imaginary parts variance 1/2 each, uncorrelated; diagonal 1
    for values, mean, var in (
        (off.real**2, 0.5, 0.5),
        (off.imag**2, 0.5, 0.5),
        (off.real * off.imag, 0.0, 0.25),
        (diag.real**2, 1.0, 2.0),
        (diag.real, 0.0, 1.0),
    ):
        assert abs(values.mean() - mean) < 5 * math.sqrt(var / values.size)


def test_mc_word_moment_matches_multiplied_out_word():
    N, trials = 12, 5
    specs = [
        EnsembleSpec("gue", N, seed=3),
        EnsembleSpec("ginibre", N, seed=4),
        EnsembleSpec("cue", N, seed=5),
    ]
    words = [
        [0],
        [(1, True)],
        [0, 1],
        [(1, False), (1, True)],
        [0, (1, True), 2, 1],
        [(2, True), 0, 0, (1, True), (2, False)],
    ]
    for word in words:
        letters = [(w, False) if isinstance(w, int) else w for w in word]
        vals = []
        for t in range(trials):
            mats = {i: mc_oracles._sample_rng(specs[i], rmt._rng(specs[i].seed, t, i)) for i in range(3)}
            prod = np.eye(N, dtype=np.complex128)
            for idx, adj in letters:
                prod = prod @ (mats[idx].conj().T if adj else mats[idx])
            vals.append(np.trace(prod) / N)
        vals = np.array(vals)
        est = mc_word_moment(specs, word, trials)
        mean = np.sum(vals) / trials
        stderr = math.sqrt(float(np.sum(np.abs(vals - mean) ** 2)) / (trials - 1) / trials)
        assert abs(est.mean - mean) <= 1e-12 * max(1.0, abs(mean))
        assert abs(est.stderr - stderr) <= 1e-12 * max(1.0, stderr)
