"""Random matrices: exact trace-moment calculus and the freeness experiments.

The GUE normalization is defined by its pair correlation E[X(ij) X(lk)] =
delta_ik delta_jl / N — diagonal entries real with variance 1/N,
off-diagonal complex with per-component variance 1/(2N) — since every exact
formula below is derived from that covariance; note the symmetrization
(Z + Z*)/2 of a variance-1/N Ginibre produces HALF this covariance and is
therefore not used.  A GUE draw takes the N^2 real normals of one matrix g
and sets ((g + g^T) + i (g - g^T)) / (2 sqrt(N)), which has that law.

Exact calculus: `wick_trace_moment` expands E tr[X^n] over pairings as a
polynomial in 1/N^2 (the genus expansion), whose coefficients count the
pairings by genus, from the Harer-Zagier recursion; `weingarten_series`
counts monotone transposition factorizations, as the Jucys-Murphy evaluation
of complete homogeneous polynomials read off through the characters of S(n),
to expand unitary correlators in 1/N, with exact geometric resummation when
the coefficient tail is periodic.

Monte Carlo: `freeness_experiment` packages the standard asymptotic
freeness checks with exact predictions and z-scores.  Each trial draws from
its own counter-based RNG stream, so results are bit-identical for any
worker count.  Its trials compute each trace by an exact identity rather
than by multiplying out the word, and draw from tridiagonal matrix models
wherever only the joint law of unitarily invariant traces matters; its
docstring gives the models and their sources.  Every trial reduction is
summed by numpy's own loops rather than a BLAS dot, so the output bytes do
not depend on the BLAS thread count.  `workers` threads run the trials of
the kinds whose trials do dense N x N work, which numpy does with the GIL
released; the O(N) trials of rotated_diagonal would only pass the GIL
between threads, so they run in the calling thread as one batch.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import NamedTuple

from ._numpy import np
from .measures import named_cumulants, named_moments
from .partitions import Permutation
from .series import free_moments_from_cumulants

__all__ = [
    "WeingartenExpansion",
    "WeingartenValue",
    "FreenessRow",
    "FreenessReport",
    "wick_trace_moment",
    "weingarten_series",
    "freeness_experiment",
    "FREENESS_KINDS",
]

FREENESS_KINDS = ("gue_gue", "gue_deterministic", "rotated_diagonal")


def _rng(seed: int, trial: int = 0, stream: int = 0) -> np.random.Generator:
    """Counter-based stream: (seed, trial, stream) fully determine the draw."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
         np.uint64(((trial << 8) | stream) & 0xFFFFFFFFFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _gue(rng: np.random.Generator, n: int) -> np.ndarray:
    """One n x n GUE draw from rng.

    It takes one real n x n matrix g of n^2 normals and sets
    h = ((g + g^T) + i (g - g^T)) / (2 sqrt(n)): the diagonal is real with
    variance 1/n, and off the diagonal the real and imaginary parts are
    independent with variance 1/(2n) each, the law in the module docstring.
    h equals its conjugate transpose bit for bit.
    """
    # h before g: the scratch g then sits above h on the heap, and its
    # memory goes back when it is freed instead of leaving a hole below h
    h = np.empty((n, n), dtype=np.complex128)
    g = rng.standard_normal((n, n))
    np.add(g, g.T, out=h.real)
    np.subtract(g, g.T, out=h.imag)
    # numpy divides a complex array by a real as a product with the
    # reciprocal; scaling the float view the same way skips complex division
    h.view(np.float64)[...] *= 1.0 / (2.0 * math.sqrt(n))
    return h


def _genus_counts(k: int) -> tuple:
    """(eps_0(k), eps_1(k), ...): pairings of [2k] by genus g, from the
    Harer-Zagier recursion (Invent. Math. 85, 1986)

        (k+1) eps_g(k) = 2(2k-1) eps_g(k-1) + (k-1)(2k-1)(2k-3) eps_{g-1}(k-2)

    with eps_0(0) = 1; every eps_g(k) with 2g <= k is positive."""
    rows = [(1,), (1,)]
    for j in range(2, k + 1):
        prev, prev2 = rows[j - 1], rows[j - 2]
        row = []
        for g in range(j // 2 + 1):
            acc = 2 * (2 * j - 1) * (prev[g] if g < len(prev) else 0)
            if g:
                acc += (j - 1) * (2 * j - 1) * (2 * j - 3) * prev2[g - 1]
            row.append(acc // (j + 1))
        rows.append(tuple(row))
    return rows[k]


def wick_trace_moment(n: int, N=None):
    """E tr[X^n] for GUE, exactly, as a genus expansion.

    Returns {r: count} meaning sum_r count / N^r (r runs over even
    non-negative integers) when N is None, or the evaluated exact rational
    for integer N >= 1.  Odd n gives exactly zero: there is no pairing of an
    odd set.  count is the number of pairings of [n] of genus r/2.  n must
    lie in 0..20.
    """
    if not 0 <= n <= 20:
        raise ValueError(f"moment order n must lie in 0..20, got {n}")
    if N is not None and N < 1:
        raise ValueError(f"dimension N must be >= 1, got {N}")
    if n % 2 == 1:
        return {} if N is None else Fraction(0)
    expansion = {2 * g: cnt for g, cnt in enumerate(_genus_counts(n // 2))}
    if N is None:
        return expansion
    return sum((Fraction(cnt, N**r) for r, cnt in expansion.items()), Fraction(0))


class WeingartenValue(NamedTuple):
    value: object
    error_bound: float
    exact: bool


class WeingartenExpansion(NamedTuple):
    """Monotone-factorization counts c_{n,r}(pi) and their 1/N resummation.

    coefficients holds c at r = |pi|, |pi|+2, ..., <= R (the off-parity
    counts vanish identically); raw holds every r for the invariant checks.
    The correlator is (1/N^n) sum_r (-1)^r c_r / N^r.
    """

    n: int
    permutation: Permutation
    R: int
    raw: tuple
    coefficients: tuple = ()

    @property
    def leading(self) -> int:
        """a(pi) = (-1)^{|pi|} c_{n,|pi|}(pi): the order-N^{-(n+|pi|)} weight."""
        d = self.permutation.cayley_distance
        return (-1) ** d * self.raw[d]

    def _periodic_from(self) -> int | None:
        for r0 in range(0, self.R - 4):
            if all(self.raw[r + 2] == self.raw[r] for r in range(r0, self.R - 1)):
                return r0
        return None

    def evaluate(self, N: int) -> WeingartenValue:
        """Correlator value at dimension N: exact geometric resummation when
        the coefficient tail is periodic, else the truncated series with an
        extrapolated next-term error bound."""
        if N < self.n:
            raise ValueError(f"need N >= n = {self.n} for an invertible Gram matrix")
        r0 = self._periodic_from()
        if r0 is not None:
            head = sum(
                (Fraction((-1) ** r * self.raw[r], N ** (self.n + r))
                 for r in range(r0)),
                Fraction(0),
            )
            tail = (
                Fraction((-1) ** r0 * self.raw[r0], N ** (self.n + r0))
                + Fraction((-1) ** (r0 + 1) * self.raw[r0 + 1], N ** (self.n + r0 + 1))
            )
            # a zero tail, as in S(1) whose head is the whole of 1/N, is not
            # resummed: at N = 1 its factor N^2/(N^2 - 1) is 1/0
            if tail:
                tail *= Fraction(N * N, N * N - 1)
            return WeingartenValue(head + tail, 0.0, True)
        total = sum(
            (Fraction((-1) ** r * self.raw[r], N ** (self.n + r))
             for r in range(self.R + 1)),
            Fraction(0),
        )
        last = next((r for r in range(self.R, -1, -1) if self.raw[r]), None)
        if last is None:
            return WeingartenValue(total, 0.0, True)
        # Geometric tail bound: coefficient ratios c_{r+2}/c_r approach
        # (n-1)^2 (the dominant pole of the rational resummation), so the
        # dropped remainder is at most a geometric series in q below.
        growth = (self.raw[last] / self.raw[last - 2]) if last >= 2 and self.raw[last - 2] else 1.0
        q = max(growth, float((self.n - 1) ** 2)) / N**2
        if q >= 1.0:
            return WeingartenValue(total, math.inf, False)
        bound = self.raw[last] / N ** (self.n + last) * q / (1.0 - q)
        return WeingartenValue(total, float(bound), False)


def _integer_partitions(n: int, largest: int | None = None):
    """Yield the partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


def _character(beta: tuple, cycle_type: tuple) -> int:
    """chi^lambda at cycle type mu by Murnaghan-Nakayama.

    lambda is given by its beta-set (first-column hook lengths): removing a
    rim hook of length k moves one bead from b to b - k onto a free place,
    with sign (-1)^(beads strictly between)."""
    if not cycle_type:
        return 1
    k, rest = cycle_type[0], cycle_type[1:]
    total = 0
    for b in beta:
        if b >= k and b - k not in beta:
            height = sum(1 for x in beta if b - k < x < b)
            moved = tuple(sorted(b - k if x == b else x for x in beta))
            total += (-1) ** height * _character(moved, rest)
    return total


def _shape_weight(shape: tuple, cycle_type: tuple) -> int:
    """dim lambda * chi^lambda(mu), dim lambda by the hook-length formula."""
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = math.prod(
        shape[i] - j + columns[j] - i - 1 for i in range(len(shape)) for j in range(shape[i])
    )
    beta = tuple(sorted(part + len(shape) - 1 - i for i, part in enumerate(shape)))
    return math.factorial(sum(shape)) // hooks * _character(beta, cycle_type)


def weingarten_series(permutation: Permutation, R: int | None = None) -> WeingartenExpansion:
    """Count monotone factorizations of pi into r transpositions, r <= R.

    A monotone factorization is pi = (s_1 t_1)...(s_r t_r) with s_i < t_i
    and t_1 <= ... <= t_r.  Their sum over all pi is h_r(J_2, ..., J_n), the
    complete homogeneous polynomial in the Jucys-Murphy elements; it is
    central and acts on the irreducible lambda as h_r(contents of lambda), so
    (Matsumoto & Novak, arXiv:0905.1992)

        c_r(pi) = (1/n!) sum_lambda dim lambda chi^lambda(pi) h_r(contents).

    n must be at most 8, and R (default: the Cayley distance |pi| + 10) must
    lie in |pi|..20, so that the leading count c_{|pi|} is among the counts.
    """
    n = permutation.n
    if n > 8:
        raise ValueError(f"permutation size {n} > 8")
    d = permutation.cayley_distance
    if R is None:
        R = d + 10
    if not d <= R <= 20:
        raise ValueError(f"truncation order R must lie in {d}..20 (the Cayley distance "
                         f"of the permutation and up), got {R}")
    cycle_type = tuple(sorted((len(c) for c in permutation.cycles()), reverse=True))
    totals = [0] * (R + 1)
    for shape in _integer_partitions(n):
        weight = _shape_weight(shape, cycle_type)
        if not weight:
            continue
        h = [1] + [0] * R
        for i, part in enumerate(shape):
            for j in range(part):
                for r in range(1, R + 1):
                    h[r] += (j - i) * h[r - 1]
        for r in range(R + 1):
            totals[r] += weight * h[r]
    raw = tuple(t // math.factorial(n) for t in totals)
    return WeingartenExpansion(
        n=n,
        permutation=permutation,
        R=R,
        raw=raw,
        coefficients=tuple(raw[r] for r in range(d, R + 1, 2)),
    )


def _run_trials(run, trials: int, workers: int):
    """run(t) for every trial t, in order or on ``workers`` threads.

    Worker w runs trials w, w + workers, w + 2 workers, ... in turn, the
    calling thread being worker 0.  Each trial writes its values into its own
    row of a trial-indexed array, so the result does not depend on the order
    the trials finish in.  If trials raise, every worker stops at its first
    failure and the exception of the lowest failing trial is raised here.
    """
    workers = min(workers, trials)
    if workers <= 1:
        for t in range(trials):
            run(t)
        return
    failures = []

    def stride(w: int):
        for t in range(w, trials, workers):
            try:
                run(t)
            except BaseException as exc:
                failures.append((t, exc))
                return

    threads = [threading.Thread(target=stride, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    stride(0)
    for thread in threads:
        thread.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _mean_stderr(vals: np.ndarray) -> tuple:
    """Mean of per-trial values, as one pairwise sum, and its standard error
    (0 for a single trial), as Python scalars."""
    trials = len(vals)
    mean = (np.sum(vals) / trials).item()
    if trials == 1:
        return mean, 0.0
    return mean, math.sqrt(float(np.sum(np.abs(vals - mean) ** 2)) / (trials - 1) / trials)


class FreenessRow(NamedTuple):
    label: str
    empirical: float
    stderr: float
    predicted: float
    z: float


class FreenessReport(NamedTuple):
    kind: str
    N: int
    trials: int
    degree: int
    rows: tuple

    def max_abs_z(self) -> float:
        return max(abs(r.z) for r in self.rows)


def _zscore(emp: float, pred: float, err: float) -> float:
    if err > 0:
        return (emp - pred) / err
    return 0.0 if emp == pred else math.inf


def _nc2_colour_count(colours) -> int:
    """Non-crossing pairings of the word positions that pair equal colours."""
    n = len(colours)
    if n % 2:
        return 0

    def rec(span: tuple) -> int:
        if not span:
            return 1
        first = span[0]
        total = 0
        for j in range(1, len(span), 2):
            if colours[span[j]] == colours[first]:
                total += rec(span[1:j]) * rec(span[j + 1 :])
        return total

    return rec(tuple(range(n)))


def _bernoulli_diag(n: int) -> np.ndarray:
    d = np.ones(n)
    d[1::2] = -1.0
    return d


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum conj(a) o b over all entries, for arrays of one shape and
    dtype, 1-d or 2-d, real or complex (complex ones C-contiguous).

    A complex array is read as its real view, so the real part is one real
    inner product with no temporary.  numpy's einsum loops sum it, not a
    BLAS dot, whose summation order (and so whose last bits) would follow
    the BLAS thread count.
    """
    ij = "ij"[: a.ndim]
    return float(np.einsum(f"{ij},{ij}->", a.view(np.float64), b.view(np.float64)))


def _power_traces(h: np.ndarray, degree: int) -> np.ndarray:
    """tr h^k for k = 1..degree, h Hermitian and C-contiguous, from the
    powers of h up to ceil(degree/2).

    tr h^(a+b) = sum_ij (h^a)_ij (h^b)_ji, so each trace pairs two stored
    powers with a = ceil(k/2), b = floor(k/2); (h^b)_ji is the conjugate of
    (h^b)_ij, and the pairing is one inner product.
    """
    powers = [None, h]
    for _ in range(2, (degree + 1) // 2 + 1):
        powers.append(powers[-1] @ h)
    out = np.empty(degree)
    out[0] = np.trace(h).real
    for k in range(2, degree + 1):
        out[k - 1] = _inner(powers[k // 2], powers[(k + 1) // 2])
    return out


def _jacobi_bidiagonal(rng: np.random.Generator, n: int) -> tuple:
    """Diagonal and superdiagonal of the upper bidiagonal B of the beta = 2,
    a = b = 0 Jacobi matrix model (Edelman & Sutton, Found. Comput. Math. 8,
    2008), whose n singular values have the law of the cosines of the
    principal angles between a Haar n-subspace of C^2n and a coordinate one.

    With c_k^2 ~ Beta(k, k) for k = n..1 and c'_k^2 ~ Beta(k, k+1) for
    k = n-1..1, all independent, s = sqrt(1 - c^2) and s' likewise, B has
    diagonal (c_n, c_(n-1) s'_(n-1), ..., c_1 s'_1) and superdiagonal
    (-s_n c'_(n-1), ..., -s_2 c'_1).
    """
    k = np.arange(n, 0, -1, dtype=float)
    c2 = rng.beta(k, k)
    cp2 = rng.beta(k[1:], k[1:] + 1.0)
    diag = np.sqrt(c2)
    diag[1:] *= np.sqrt(1.0 - cp2)
    sup = -np.sqrt(1.0 - c2[:-1]) * np.sqrt(cp2)
    return diag, sup


def _tridiagonal_power_traces(w_diag: np.ndarray, w_off: np.ndarray, count: int) -> np.ndarray:
    """tr W^k for k = 1..count, W the real symmetric tridiagonal matrix with
    diagonal w_diag (..., n) and off-diagonal w_off (..., n - 1), for every
    row of the leading axes at once, with no n x n array.

    W^k is banded with 2k + 1 diagonals, kept as band[..., k + o, i] =
    (W^k)_(i, i+o), zero where i + o falls outside 0..n-1.  The step
    W^(k+1) = W W^k reads rows i - 1, i, i + 1 of W^k at the same column,
    which in this layout is the neighbouring diagonal one place along:

        (W^(k+1))_(i, i+o) = w_i (W^k)_(i, i+o) + v_(i-1) (W^k)_(i-1, i+o)
                                                + v_i (W^k)_(i+1, i+o),

    v the off-diagonal.  As in `_power_traces`, tr W^(a+b) = <W^a, W^b> with
    a = ceil(k/2), b = floor(k/2), here summed over the 2b + 1 diagonals the
    two share, W^0 = I being the one diagonal of ones.  Each row is reduced
    on its own by numpy's pairwise sum, so a row's traces do not depend on
    the rows stacked beside it, and no BLAS call sees them.
    """
    lead = w_diag.shape[:-1]
    bands = [np.ones(lead + (1, w_diag.shape[-1]))]
    for _ in range((count + 1) // 2):
        band = bands[-1]
        step = np.zeros(lead + (band.shape[-2] + 2, band.shape[-1]))
        step[..., 1:-1, :] = band * w_diag[..., None, :]
        step[..., :-2, 1:] += band[..., :, :-1] * w_off[..., None, :]
        step[..., 2:, :-1] += band[..., :, 1:] * w_off[..., None, :]
        bands.append(step)
    out = np.empty(lead + (count,))
    for k in range(1, count + 1):
        a, b = (k + 1) // 2, k // 2
        shared = bands[a][..., a - b : a + b + 1, :] * bands[b]
        out[..., k - 1] = np.sum(shared.reshape(lead + (-1,)), axis=-1)
    return out


def _bidiagonal_moments(diag: np.ndarray, sup: np.ndarray, degree: int) -> np.ndarray:
    """tr(m^k)/N for k = 1..degree, m = U D U* + D, D = diag(1, -1, 1, ...),
    N = 2 n, from the bidiagonal B that `_jacobi_bidiagonal` draws, given by
    its diagonal (..., n) and superdiagonal (..., n - 1); stacked rows give
    stacked moments, each row the same bits as on its own.

    The spectrum of m is +-2 cos(theta_i), cos(theta_i) the singular values
    of B, whose squares are the eigenvalues of the tridiagonal W = B^T B, so
    tr(m^(2j)) = 2 4^j tr(W^j) and every odd moment is exactly 0.
    """
    n = diag.shape[-1]
    w_diag = diag * diag
    w_diag[..., 1:] += sup * sup
    w_off = diag[..., :-1] * sup
    out = np.zeros(diag.shape[:-1] + (degree,))
    traces = _tridiagonal_power_traces(w_diag, w_off, degree // 2)
    out[..., 1::2] = 2.0 * 4.0 ** np.arange(1, degree // 2 + 1) * traces / (2 * n)
    return out


def _gue_tridiagonal(rng: np.random.Generator, n: int) -> tuple:
    """Diagonal d and off-diagonal e of the Householder tridiagonal form T of
    one n x n GUE draw (Dumitriu & Edelman, J. Math. Phys. 43, 2002).

    Step k reduces the first column of the trailing (n-k+1) x (n-k+1)
    block, again a GUE with the same entry law by unitary invariance; it
    leaves that column's diagonal entry and the norm of the n - k entries
    below it, a sum of n - k independent Exp(1/n) moduli squared:
    d_k ~ N(0, 1/n) and e_k^2 ~ Gamma(n - k, 1)/n, all independent.
    """
    d = rng.standard_normal(n) * (1.0 / math.sqrt(n))
    e = np.sqrt(rng.standard_gamma(np.arange(n - 1, 0, -1, dtype=float)) * (1.0 / n))
    return d, e


def _gue_pair_traces(d: np.ndarray, e: np.ndarray, g: np.ndarray, degree: int,
                     scratch=None) -> dict:
    """tr of the gue_gue words up to this degree, for x the real symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, and y the GUE
    that `_gue` builds from the real n x n normals g.  scratch, if given,
    is three C-contiguous float n x n arrays that P, Q and P P are written
    into, the last one also holding each shifted product before it is
    added; the values are the same bits either way.

    y = (a g + conj(a) g^T) / (2 sqrt(n)) with a = 1 + i, so every word is
    read off P = x g and Q = g x, each formed row or column wise in O(n^2),
    with <A, B> = sum A o B:

        tr xy = tr P / sqrt(n),         tr yy = <g, g> / n,
        tr xyxy = <P, Q> / n,           tr xxyy = (<P, P> + <Q, Q>) / (2n),
        tr xyxyxy = (3 <P^2, Q> - tr P^3) / (2 n^(3/2)),

    exact because a^3 + conj(a)^3 = -4 and a^2 conj(a) = 2a.  Only the last
    needs a product, the real P P (n^3 multiply-adds).  There is no yx word:
    tr(yx) = tr(xy) by cyclicity, so it would repeat the xy row.
    """
    n = len(d)
    if scratch is None:
        scratch = np.empty((3, n, n))
    p, q, pp = scratch
    np.multiply(d[:, None], g, out=p)
    p[:-1] += np.multiply(e[:, None], g[1:], out=pp[:-1])
    p[1:] += np.multiply(e[:, None], g[:-1], out=pp[:-1])
    vals = {
        (0, 0): _inner(d, d) + 2.0 * _inner(e, e),
        (0, 1): np.trace(p) / math.sqrt(n),
        (1, 1): _inner(g, g) / n,
    }
    if degree >= 4:
        np.multiply(g, d, out=q)
        q[:, :-1] += np.multiply(g[:, 1:], e, out=pp[:, :-1])
        q[:, 1:] += np.multiply(g[:, :-1], e, out=pp[:, :-1])
        vals[(0, 1, 0, 1)] = _inner(p, q) / n
        vals[(0, 0, 1, 1)] = (_inner(p, p) + _inner(q, q)) / (2 * n)
        if degree >= 6:
            np.matmul(p, p, out=pp)
            vals[(0, 1, 0, 1, 0, 1)] = (3.0 * _inner(pp, q) - _inner(pp, p.T)) / (2 * n * math.sqrt(n))
    return vals


def freeness_experiment(
    kind: str, N: int, trials: int, degree: int, seed: int = 0, workers: int = 1
) -> FreenessReport:
    """Asymptotic-freeness checks with exact predictions and z-scores.

    gue_gue: mixed words of two independent GUEs against the colour-respecting
    non-crossing pairing counts.  gue_deterministic: spectral moments of
    X + D for a balanced +-1 diagonal D against the exact moments of
    semicircle boxplus Bernoulli.  rotated_diagonal: moments of U D U* + D,
    U Haar, against the exact arcsine moments (arcsine = Bernoulli boxplus
    Bernoulli).  The exact predictions come from the law table in
    `measures`: summed free cumulants, or the arcsine moments.

    Each trial computes its traces by exact identities, and draws from a
    tridiagonal matrix model with the same joint law of the traces it
    reads, so every estimate has the law of the multiplied-out word.
    rotated_diagonal: the spectrum of U D U* + D is +-2 cos(theta_i), theta_i
    the principal angles between the span of the N/2 columns of U where
    D = +1 and the coordinate subspace where D = +1 (Halmos, Trans. AMS 144,
    1969; their limit law is the arcsine, Collins, PTRF 133, 2005).  A trial
    draws the cos(theta_i) as the singular values of the bidiagonal beta = 2,
    a = b = 0 Jacobi model, c_k^2 ~ Beta(k, k) and c'_k^2 ~ Beta(k, k+1)
    (Edelman & Sutton, Found. Comput. Math. 8, 2008), in O(N) draws, and
    reads tr cos^(2j) off the banded powers of a tridiagonal N/2 x N/2
    matrix, for all trials at once and with no N/2 x N/2 array.  The odd
    moments are exactly 0.  gue_gue: x is drawn as its Householder
    tridiagonal form, N(0, 1/N) diagonal and sqrt(Gamma(N - k, 1)/N)
    off-diagonal (Dumitriu & Edelman, J. Math. Phys. 43, 2002), y as the N^2
    real normals g of a dense GUE, since conjugating y by x's Householder
    basis leaves a GUE independent of x; `_gue_pair_traces` gives the
    identities that read the words off g with one real N^3 product, each
    worker thread reusing four N x N scratch arrays for g and the products.
    gue_deterministic pairs stored powers of X + D.

    workers >= 1 threads run the gue_gue and gue_deterministic trials, whose
    dense products release the GIL; rotated_diagonal runs in the calling
    thread whatever workers is, as its O(N) trials would only pass the GIL
    between threads.  The rows do not depend on workers.

    kind is one of `FREENESS_KINDS`; N >= 2 (even for rotated_diagonal),
    trials >= 2 and degree >= 2.
    """
    if kind not in FREENESS_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of {FREENESS_KINDS}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if kind == "rotated_diagonal" and N % 2:
        raise ValueError("rotated_diagonal needs even N for a balanced diagonal")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if kind == "gue_gue":
        words = [(0, 0), (0, 1), (1, 1)]
        if degree >= 4:
            words += [(0, 1, 0, 1), (0, 0, 1, 1)]
        if degree >= 6:
            words += [(0, 1, 0, 1, 0, 1)]
        labels = ["".join("xy"[c] for c in w) for w in words]
        pred = [float(_nc2_colour_count(w)) for w in words]
        samples = np.empty((trials, len(words)))
        local = threading.local()

        def run_gg(t: int):
            d, e = _gue_tridiagonal(_rng(seed, t, 0), N)
            # g, then P, Q and P P, made by a worker thread's first trial
            # and reused by the rest
            scratch = getattr(local, "scratch", None)
            if scratch is None:
                scratch = local.scratch = [np.empty((N, N)) for _ in range(4)]
            g = _rng(seed, t, 1).standard_normal(out=scratch[0])
            vals = _gue_pair_traces(d, e, g, degree, scratch[1:])
            for j, w in enumerate(words):
                samples[t, j] = vals[w] / N

        _run_trials(run_gg, trials, workers)
    elif kind == "gue_deterministic":
        diag = _bernoulli_diag(N)
        kappas = zip(named_cumulants("semicircle", degree), named_cumulants("bernoulli", degree))
        pred = [float(v) for v in free_moments_from_cumulants([a + b for a, b in kappas])]
        labels = [f"m{k}" for k in range(1, degree + 1)]
        samples = np.empty((trials, degree))

        def run_gd(t: int):
            samples[t] = _power_traces(_gue(_rng(seed, t, 0), N) + np.diag(diag), degree) / N

        _run_trials(run_gd, trials, workers)
    else:
        pred = [float(v) for v in named_moments("arcsine", degree)]
        labels = [f"m{k}" for k in range(1, degree + 1)]
        n = N // 2
        diags, sups = np.empty((trials, n)), np.empty((trials, n - 1))
        for t in range(trials):
            diags[t], sups[t] = _jacobi_bidiagonal(_rng(seed, t, 0), n)
        samples = _bidiagonal_moments(diags, sups, degree)

    rows = []
    for j, label in enumerate(labels):
        mean, err = _mean_stderr(samples[:, j])
        rows.append(FreenessRow(label, mean, err, pred[j], _zscore(mean, pred[j], err)))
    return FreenessReport(kind=kind, N=N, trials=trials, degree=degree, rows=tuple(rows))
