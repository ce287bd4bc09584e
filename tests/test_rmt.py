"""Random-matrix ensembles, Wick/genus expansions, Weingarten calculus."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from freeprob import rmt
from freeprob.partitions import Permutation
from freeprob.rmt import (
    EnsembleSpec,
    freeness_experiment,
    genus_profile,
    geodesic_order_assembly,
    mc_word_moment,
    sample,
    weingarten_series,
    wick_trace_moment,
)

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


def test_genus_profile():
    assert genus_profile(1) == (1,)
    assert genus_profile(2) == (2, 1)
    assert genus_profile(3) == (5, 10)
    assert genus_profile(4) == (14, 70, 21)
    for k in range(1, 7):
        prof = genus_profile(k)
        assert prof[0] == CATALAN[k]  # planar pairings lead
        assert sum(prof) == dfact(2 * k)  # all pairings, over every genus
    with pytest.raises(ValueError):
        genus_profile(0)


def test_wick_and_genus_profile_agree():
    for k in (1, 2, 3, 4):
        exp = wick_trace_moment(2 * k)
        prof = genus_profile(k)
        assert exp == {2 * g: prof[g] for g in range(len(prof)) if prof[g]}


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
    with pytest.raises(ValueError):
        freeness_experiment("rotated_diagonal", 21, 20, 4)  # N must be even


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
            traces = [Fraction(nn * (1 + 2**k), 2) for k in rmt._contraction_cycles(rho, sig)]
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
        k = n // 2
        assert genus_profile(k) == tuple(hist.get(k + 1 - 2 * g, 0) for g in range(k // 2 + 1))


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
        q = rmt._haar_unitary(rmt._rng(seed, trial), 50)
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


@pytest.mark.parametrize("N", [20, 50])
def test_half_rank_reduction_matches_power_loop(N):
    d = rmt._bernoulli_diag(N)
    for seed, trial in ((0, 0), (5, 2), (31, 7)):
        u = rmt._haar_unitary(rmt._rng(seed, trial), N)
        direct = direct_power_moments((u * d) @ u.conj().T + np.diag(d), 8)
        # any basis of the span will do: the orthonormal one, and a skewed one
        r = rmt._complex_normal(rmt._rng(seed, trial, 1), (N // 2, N // 2))
        for basis in (u[:, ::2], u[:, ::2] @ r):
            reduced = rmt._rotated_diagonal_moments(basis, 8)
            assert np.all(np.abs(reduced - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))
            assert np.all(reduced[0::2] == 0.0)


@pytest.mark.parametrize("N", [20, 50])
def test_rotated_diagonal_trials_match_orthonormalised_draws(N):
    # the thin QR of each trial's own draw is the reference: U D U* = 2 q q* - I
    seed, trials, degree = 3, 6, 8
    d = rmt._bernoulli_diag(N)
    rows = []
    for t in range(trials):
        g = rmt._complex_normal(rmt._rng(seed, t, 0), (N, N // 2))
        q = np.linalg.qr(g)[0]
        want = direct_power_moments(2.0 * q @ q.conj().T - np.eye(N) + np.diag(d), degree)
        got = rmt._rotated_diagonal_moments(g, degree)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        rows.append(got)
    rep = freeness_experiment("rotated_diagonal", N, trials, degree, seed=seed)
    assert np.allclose([row.empirical for row in rep.rows], np.mean(rows, axis=0),
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", [(1,), (7, 3), (40, 20)])
def test_complex_normal_fills_the_two_draws_in_place(shape):
    rng, ref = rmt._rng(9, 4), rmt._rng(9, 4)
    z = rmt._complex_normal(rng, shape)
    assert np.array_equal(z, ref.standard_normal(shape) + 1j * ref.standard_normal(shape))
    assert rng.standard_normal() == ref.standard_normal()


def test_power_traces_match_matrix_power():
    N = 30
    x = sample(EnsembleSpec("gue", N, seed=2))
    h = x + np.diag(rmt._bernoulli_diag(N))
    # a product of two Hermitian matrices has real traces but is not Hermitian
    m = h @ (x @ x)
    for mat, hermitian in ((h, True), (m, False)):
        for degree in (1, 2, 5, 8):
            got = rmt._power_traces(mat, degree, hermitian=hermitian)
            want = [np.trace(np.linalg.matrix_power(mat, k)).real for k in range(1, degree + 1)]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * N)


def test_gue_pair_traces_match_products():
    N = 30
    x = sample(EnsembleSpec("gue", N, seed=3))
    y = sample(EnsembleSpec("gue", N, seed=4))
    vals = rmt._gue_pair_traces(x, y, 6)
    xy = x @ y
    want = {
        (0, 0): np.trace(x @ x),
        (0, 1): np.trace(xy),
        (1, 0): np.trace(y @ x),
        (1, 1): np.trace(y @ y),
        (0, 1, 0, 1): np.trace(xy @ xy),
        (0, 0, 1, 1): np.sum((x @ x) * (y @ y).T),
        (0, 1, 0, 1, 0, 1): np.trace(xy @ xy @ xy),
    }
    assert vals.keys() == want.keys()
    for word, value in want.items():
        assert abs(vals[word] - value) <= 1e-12 * max(1.0, abs(value))
    assert set(rmt._gue_pair_traces(x, y, 4)) == set(want) - {(0, 1, 0, 1, 0, 1)}


def test_rotated_diagonal_odd_rows_are_exactly_zero():
    for seed in (0, 87, 106):
        rep = freeness_experiment("rotated_diagonal", 40, 10, 6, seed=seed)
        for row in rep.rows[0::2]:
            assert (row.empirical, row.stderr, row.predicted, row.z) == (0.0, 0.0, 0.0, 0.0)
        assert all(row.stderr > 0 for row in rep.rows[1::2])


@pytest.mark.parametrize("kind", ["gue_gue", "gue_deterministic", "rotated_diagonal"])
def test_freeness_experiment_worker_count_is_invisible(kind):
    one = freeness_experiment(kind, 24, 9, 6, seed=12, workers=1)
    two = freeness_experiment(kind, 24, 9, 6, seed=12, workers=2)
    assert one.rows == two.rows


@pytest.mark.parametrize("N", [1, 7, 40])
def test_gue_draw_is_one_real_normal_matrix_symmetrised(N):
    h = sample(EnsembleSpec("gue", N, seed=13), trial=2)
    assert np.array_equal(h, h.conj().T)
    rng = rmt._rng(13, 2)
    g = rng.standard_normal((N, N))
    assert np.array_equal(h, ((g + g.T) + 1j * (g - g.T)) / (2 * math.sqrt(N)))
    # the draw used exactly N^2 normals: both streams continue alike
    used = rmt._rng(13, 2)
    rmt._sample_rng(EnsembleSpec("gue", N, seed=13), used)
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
            mats = {i: rmt._sample_rng(specs[i], rmt._rng(specs[i].seed, t, i)) for i in range(3)}
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
