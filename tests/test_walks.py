"""Loop counts on lattices and free groups, return probabilities, recurrence."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from exact_oracles import log_return_probs_lattice, tree_dp_loops
from freeprob import walks
from freeprob.series import free_cumulants_from_moments, free_moments_from_cumulants
from freeprob.walks import (
    LoopCounts,
    ReturnProbabilities,
    first_return,
    kesten_decay_base,
    kesten_green,
    kesten_loops,
    loops_lattice,
    polya_diagnostic,
)


def brute_lattice_loops(d, n):
    """Count length-n loops on Z^d by dynamic programming over positions."""
    state = {(0,) * d: 1}
    for _ in range(n):
        nxt = {}
        for pos, cnt in state.items():
            for axis in range(d):
                for step in (1, -1):
                    q = list(pos)
                    q[axis] += step
                    q = tuple(q)
                    nxt[q] = nxt.get(q, 0) + cnt
        state = nxt
    return state.get((0,) * d, 0)


def brute_tree_loops(d, n):
    """Count length-n identity words in F_d by a radial DP on the Cayley tree.

    A word at distance r > 0 has exactly one letter that shortens it and
    2d - 1 letters that extend it; at the root all 2d letters extend.
    """
    counts = {0: 1}
    for _ in range(n):
        nxt = {}
        for r, c in counts.items():
            if r == 0:
                nxt[1] = nxt.get(1, 0) + 2 * d * c
            else:
                nxt[r - 1] = nxt.get(r - 1, 0) + c
                nxt[r + 1] = nxt.get(r + 1, 0) + (2 * d - 1) * c
        counts = nxt
    return counts.get(0, 0)


def reduce_word(word):
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def test_lattice_loops_d2_frozen():
    assert loops_lattice(2, 6).values == (1, 0, 4, 0, 36, 0, 400)


def test_lattice_loops_match_position_dp():
    for d in (1, 2, 3):
        lam = loops_lattice(d, 8).values
        for n in range(0, 9, 2):
            assert lam[n] == brute_lattice_loops(d, n)


def test_lattice_metadata():
    lc = loops_lattice(3, 4)
    assert lc.group == "Z^3"
    assert lc.rank == 3
    assert lc.degree == 6
    assert loops_lattice(1, 4).group == "Z"


def test_kesten_loops_d2_frozen():
    assert kesten_loops(2, 8).values == (1, 0, 4, 0, 28, 0, 232, 0, 2092)
    assert kesten_loops(3, 6).values == (1, 0, 6, 0, 66, 0, 876)


def test_kesten_loops_match_radial_dp():
    for d in (2, 3):
        lam = kesten_loops(d, 10).values
        for n in range(0, 11, 2):
            assert lam[n] == brute_tree_loops(d, n)


@pytest.mark.parametrize("d", range(1, 9))
def test_kesten_recurrence_matches_the_pruned_tree_dp(d):
    for n_max in (0, 1, 2, 3, 199, 200):
        assert kesten_loops(d, n_max).values == tree_dp_loops(d, n_max)


def test_kesten_loops_match_word_reduction():
    # exhaustive reduction of all 4^n words in F_2
    letters = (1, -1, 2, -2)
    lam = kesten_loops(2, 8).values
    for n in (2, 4, 6, 8):
        hits = sum(
            1 for w in itertools.product(letters, repeat=n) if reduce_word(w) == ()
        )
        assert lam[n] == hits


def test_rank_one_free_group_is_the_integer_lattice():
    assert kesten_loops(1, 10).values == loops_lattice(1, 10).values


def test_loop_count_guards():
    with pytest.raises(ValueError):
        loops_lattice(0, 4)
    with pytest.raises(ValueError):
        kesten_loops(2, -1)


@pytest.mark.parametrize("args,message", [
    (("Z", 0, (1,)), "rank must be >= 1, got 0"),
    (("Z", 1, ()), "lambda(0) must equal 1"),
    (("Z", 1, (2, 0, 2)), "lambda(0) must equal 1"),
    (("Z", 1, (1, 2, 2)), "lambda(1) must vanish for odd n, got 2"),
    (("Z", 1, (1, 0, 5)), "lambda(2)=5 outside [0, degree^n]"),
    (("Z", 1, (1, 0, -2)), "lambda(2)=-2 outside [0, degree^n]"),
])
def test_loop_counts_reject_impossible_values(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LoopCounts(*args)


def test_loop_counts_keep_their_fields():
    loops = LoopCounts(group="Z^2", rank=2, values=(1, 0, 4))
    assert (loops.group, loops.rank, loops.values, loops.degree) == ("Z^2", 2, (1, 0, 4), 4)


@pytest.mark.parametrize("values,first_returns,message", [
    ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(0)), "rho(0) must equal 1"),
    ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0)), "phi(0) must equal 0"),
    ((Fraction(1), Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(0), Fraction(1, 2)),
     "need 0 <= phi <= rho <= 1 at n=2"),
])
def test_return_probabilities_reject_impossible_values(values, first_returns, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ReturnProbabilities(values=values, first_returns=first_returns)


def test_return_probabilities_and_first_returns():
    rp = ReturnProbabilities.from_loops(loops_lattice(1, 6))
    assert rp.values[2] == Fraction(1, 2)
    assert rp.first_returns[2] == Fraction(1, 2)
    assert rp.first_returns[4] == Fraction(1, 8)
    assert rp.first_returns[6] == Fraction(1, 16)


def test_first_return_renewal_identity():
    # rho(n) = sum_k phi(k) rho(n-k) must reconstruct the input sequence
    rho = [Fraction(v, 16) for v in (16, 0, 4, 0, 3, 0, 2)]
    phi = first_return(rho)
    for n in range(1, len(rho)):
        assert rho[n] == sum(phi[k] * rho[n - k] for k in range(1, n + 1))
    assert phi[0] == 0


def test_first_return_renewal_identity_on_a_float_ndarray():
    rho = np.array([float(v) for v in ReturnProbabilities.from_loops(loops_lattice(2, 40)).values])
    phi = first_return(rho)
    for n in range(1, len(rho)):
        assert abs(rho[n] - sum(phi[k] * rho[n - k] for k in range(1, n + 1))) < 1e-12
    assert phi[0] == 0


def test_first_return_requires_unit_start():
    with pytest.raises(ValueError):
        first_return([Fraction(0), Fraction(1, 2)])


def test_polya_exponents_small_run():
    s1, e1 = polya_diagnostic(1, 400)
    s2, e2 = polya_diagnostic(2, 400)
    s3, e3 = polya_diagnostic(3, 400)
    assert abs(e1 + 0.5) < 0.05
    assert abs(e2 + 1.0) < 0.1
    assert abs(e3 + 1.5) < 0.1
    # partial sums of rho(n): divergent-looking growth in low d, convergent in d=3
    assert s1 > s2 > s3
    assert s3 < 1.6


def test_polya_guards():
    with pytest.raises(ValueError):
        polya_diagnostic(1, 100)
    with pytest.raises(ValueError):
        polya_diagnostic(0, 400)


def test_kesten_green_series_matches_closed_form_d2():
    for z in (0.0, 0.1, 0.05 + 0.02j):
        g = kesten_green(2, z)
        assert abs(g.general_closed_form_value - g.series_value) < 1e-9


def test_kesten_green_frozen_values():
    g = kesten_green(2, 0.1)
    assert abs(g.general_closed_form_value - 1.0430551237254426) < 1e-12
    assert abs(g.decay_base - 0.8639468332192504) < 1e-12
    # spectral-radius reading: rho(2n)^(1/2n) -> sqrt(2d-1)/d
    assert abs(g.decay_base - math.sqrt(3) / 2) < 5e-3


def test_kesten_green_d3_series_and_decay():
    # at d = 3 the series holds its frozen value and the decay base still
    # tracks sqrt(2d-1)/d
    g = kesten_green(3, 0.1)
    assert abs(g.series_value - 1.0676274578121057) < 1e-9
    assert abs(g.decay_base - math.sqrt(5) / 3) < 5e-3


def test_kesten_green_guards():
    with pytest.raises(ValueError):
        kesten_green(1, 0.1)
    with pytest.raises(ValueError):
        kesten_green(2, 0.9)


def test_kesten_loops_are_moments_of_free_arcsine_powers():
    # the paper's identity: loops on F_d are the moments of the d-fold free
    # convolution of the arcsine law, whose moments are the central binomials
    arcsine = [Fraction(math.comb(n, n // 2) if n % 2 == 0 else 0) for n in range(1, 65)]
    kappa = free_cumulants_from_moments(arcsine)
    for d in (2, 3, 4):
        moments = free_moments_from_cumulants([d * k for k in kappa])
        assert kesten_loops(d, 64).values == tuple([1] + [int(m) for m in moments])


def shuffle_lattice_loops(d, n_max):
    """lambda_d(n) = sum_k C(n, k) lambda_(d-1)(k) lambda_1(n-k): a loop on Z^d
    is a shuffle of a loop on Z^(d-1) and one on the last axis."""
    one = [math.comb(n, n // 2) if n % 2 == 0 else 0 for n in range(n_max + 1)]
    lam = one[:]
    for _ in range(d - 1):
        lam = [
            sum(math.comb(n, k) * lam[k] * one[n - k] for k in range(0, n + 1, 2))
            if n % 2 == 0
            else 0
            for n in range(n_max + 1)
        ]
    return lam


def logsumexp_lattice(d, n_max):
    """log rho_d(n) by d-1 log-domain convolutions of the EGF of lambda_1,
    whose coefficients are 1/k!^2 at x^(2k); odd entries are -inf."""

    def logsumexp(t):
        top = t.max()
        hit = t == top
        rest = np.exp(t - top)
        rest[hit] = 0.0
        count = float(np.count_nonzero(hit))
        return math.log1p(rest.sum() / count) + math.log(count) + top

    ns = np.arange(n_max + 1)
    lc1 = np.full(n_max + 1, -np.inf)
    ks = np.arange(0, n_max // 2 + 1)
    lc1[2 * ks] = [-2.0 * math.lgamma(k + 1.0) for k in ks]
    lcd = lc1.copy()
    for _ in range(d - 1):
        nxt = np.full(n_max + 1, -np.inf)
        for n in range(0, n_max + 1, 2):
            nxt[n] = logsumexp(lcd[0 : n + 1 : 2] + lc1[n::-2])
        lcd = nxt
    return np.array([math.lgamma(n + 1.0) for n in ns]) + lcd - ns * math.log(2 * d)


def exact_log_rho(d, n_max):
    lam = loops_lattice(d, n_max).values
    return [math.log(lam[n]) - n * math.log(2 * d) for n in range(0, n_max + 1, 2)]


def test_loop_recurrence_matches_binomial_shuffle():
    for d in range(1, 7):
        assert loops_lattice(d, 120).values == tuple(shuffle_lattice_loops(d, 120))
    assert loops_lattice(4, 0).values == (1,)
    with pytest.raises(ValueError):
        loops_lattice(2, -1)


def test_float_recurrence_matches_exact_counts():
    for d in range(1, 7):
        got = walks._log_return_probs_lattice(d, 400)
        assert np.all(got[1::2] == -np.inf)
        assert np.max(np.abs(got[::2] - exact_log_rho(d, 400))) < 1e-12


def test_float_recurrence_matches_logsumexp_convolution():
    for d in (1, 2, 3, 4):
        got = walks._log_return_probs_lattice(d, 600)
        want = logsumexp_lattice(d, 600)
        assert np.all(got[1::2] == want[1::2])
        assert np.max(np.abs(got[::2] - want[::2])) < 1e-11


def test_d3_return_probabilities_match_a002893():
    # lambda_3(2n) = C(2n, n) a_n with
    # n^2 a_n = (10n^2 - 10n + 3) a_(n-1) - 9 (n-1)^2 a_(n-2)  (OEIS A002893)
    got = walks._log_return_probs_lattice(3, 5000)
    a = [1, 3]
    for n in range(2, 2501):
        num = (10 * n * n - 10 * n + 3) * a[-1] - 9 * (n - 1) ** 2 * a[-2]
        assert num % (n * n) == 0
        a.append(num // (n * n))
    central = 1
    worst = 0.0
    for n in range(1, 2501):
        central = central * (2 * n) * (2 * n - 1) // (n * n)
        want = math.log(central * a[n]) - 2 * n * math.log(6)
        worst = max(worst, abs(got[2 * n] - want))
    assert worst < 5e-12


def test_large_rank_return_probabilities_stay_finite():
    got = walks._log_return_probs_lattice(1000, 1000)
    assert np.all(np.isfinite(got[::2]))
    assert got[1000] < -900  # far below the smallest double
    assert np.max(np.abs(got[::2] - exact_log_rho(1000, 1000))) < 1e-11
    total, slope = polya_diagnostic(1000, 1000)
    assert math.isfinite(total) and math.isfinite(slope)


def test_kesten_green_general_closed_form_matches_series():
    assert kesten_green(3, 0.1).general_closed_form_value == 1.0676274578121059
    for d in (2, 3, 4):
        for z in (0.0, 0.5 / (2 * d), 0.03 + 0.02j, -0.8 / (2 * d)):
            g = kesten_green(d, z)
            assert abs(g.general_closed_form_value - g.series_value) < 1e-12


@pytest.mark.parametrize("d,n_max", [
    (1, 300), (2, 1001), (3, 5000), (5, 777), (7, 201), (40, 3000), (1000, 1000),
    (1, 0), (3, 1), (2, 2), (1000, 1), (2**63, 300), (10**30, 200),
])
def test_float_recurrence_is_bit_identical_to_the_branching_one(d, n_max):
    # (1000, 1000) leaves [2^-64, 2^63) and rescales; (1000, 1) ends on an
    # all-zero vector, whose rescale is by 2^0; d = 2^63 and 10^30 do not fit
    # an int64, so the kept range clips d to n_max before numpy sees it
    got = walks._log_return_probs_lattice(d, n_max)
    assert got.tobytes() == log_return_probs_lattice(d, n_max).tobytes()


def test_polya_accepts_a_rank_past_int64():
    partial_sum, slope = polya_diagnostic(2**63, 300)
    assert partial_sum == 1.0
    assert math.isfinite(slope) and slope < 0


@pytest.mark.parametrize("n_max,computed", [(63, [64]), (64, []), (120, [])])
def test_kesten_green_reads_the_callers_loop_counts(monkeypatch, n_max, computed):
    # counts through order 64 serve the series; shorter ones are computed again
    z = 0.1 / 6
    fresh = kesten_green(3, z)
    calls = []
    monkeypatch.setattr(walks, "kesten_loops",
                        lambda d, n: calls.append(n) or kesten_loops(d, n))
    assert kesten_green(3, z, kesten_loops(3, n_max)) == fresh
    assert calls == computed


def test_kesten_green_rejects_loop_counts_of_another_walk():
    for loops in (kesten_loops(2, 64), loops_lattice(3, 64)):
        with pytest.raises(ValueError, match="not on F_3"):
            kesten_green(3, 0.01, loops)
        with pytest.raises(ValueError, match="not on F_3"):
            kesten_decay_base(3, loops)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_kesten_decay_base_is_the_one_kesten_green_reports(d):
    loops = kesten_loops(d, 120)
    base = kesten_decay_base(d, loops)
    assert base == kesten_decay_base(d) == kesten_green(d, 0.01, loops).decay_base
    assert abs(base - math.sqrt(2 * d - 1) / d) < 5e-3
    with pytest.raises(ValueError, match="d must be >= 2"):
        kesten_decay_base(1)
