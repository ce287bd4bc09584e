"""Random-matrix ensembles, exact trace-moment calculus, and MC experiments.

Sampling covers Ginibre, GUE, CUE (QR of a Ginibre with the phases of R's
diagonal moved into Q), and fixed deterministic matrices.  The GUE
normalization is defined by its pair correlation E[X(ij) X(lk)] =
delta_ik delta_jl / N — diagonal entries real with variance 1/N,
off-diagonal complex with per-component variance 1/(2N) — since every exact
formula below is derived from that covariance; note the symmetrization
(Z + Z*)/2 of a variance-1/N Ginibre produces HALF this covariance and is
therefore not used.  A GUE draw takes the N^2 real normals of one matrix g
and sets ((g + g^T) + i (g - g^T)) / (2 sqrt(N)), which has that law.

Exact calculus: `wick_trace_moment` expands E tr[X^n] over pairings as a
polynomial in 1/N^2 (the genus expansion) and `genus_profile` counts the
pairings by genus, both from the Harer-Zagier recursion; `weingarten_series`
counts monotone transposition factorizations, as the Jucys-Murphy evaluation
of complete homogeneous polynomials read off through the characters of S(n),
to expand unitary correlators in 1/N, with exact geometric resummation when
the coefficient tail is periodic.

Monte Carlo: `mc_word_moment` estimates (E tr) of matrix words with
counter-based per-trial RNG streams, so results are bit-identical for any
worker count; `freeness_experiment` packages the standard asymptotic
freeness checks with exact predictions and z-scores.  Its trials compute
each trace by an exact identity rather than by multiplying out the word.
For U D U* + D with D = +-1 (N/2 each) the spectrum is +-2 cos(theta_i),
theta_i the principal angles between a Haar N/2-subspace and a coordinate
N/2-subspace (Halmos, "Two subspaces", Trans. AMS 144, 1969), so a trial
needs only the traces of the N/2 x N/2 matrix W whose eigenvalues are
cos^2(theta_i), a Jacobi matrix with the arcsine limit law (Collins, PTRF
133, 2005).  W is the Gram matrix of an orthonormal basis, but it is similar
to M = C^-1 A for any basis of the subspace, A the Gram matrix of its
coordinate rows and C that of the whole basis (Bjorck & Golub, Math. Comp.
27, 1973), so one linear solve replaces the orthonormalisation.  The solve
loses the small angles' relative accuracy, which only an angle itself would
need: the traces are sums of cos^(2j)(theta_i) <= 1, accurate to rounding
in their sum.  The other traces pair stored powers:
tr h^(a+b) = sum_ij (h^a)_ij (h^b)_ji.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .measures import named_cumulants, named_moments
from .partitions import Permutation, is_geodesic
from .series import free_moments_from_cumulants

__all__ = [
    "EnsembleSpec",
    "WeingartenExpansion",
    "WeingartenValue",
    "MCEstimate",
    "FreenessRow",
    "FreenessReport",
    "sample",
    "wick_trace_moment",
    "genus_profile",
    "weingarten_series",
    "mc_word_moment",
    "freeness_experiment",
    "geodesic_order_assembly",
]

_KINDS = ("ginibre", "gue", "cue", "deterministic")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: ensemble kind, dimension, and RNG seed.

    deterministic specs carry their matrix in `payload`; the seed is then
    inert but kept so specs stay interchangeable in words.
    """

    kind: str
    N: int
    seed: int = 0
    payload: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; expected {_KINDS}")
        if self.N < 1:
            raise ValueError(f"dimension must be >= 1, got {self.N}")
        if self.kind == "deterministic":
            if self.payload is None:
                raise ValueError("deterministic spec needs a payload matrix")
            if getattr(self.payload, "shape", None) != (self.N, self.N):
                raise ValueError(
                    f"payload must be an ndarray of shape ({self.N}, {self.N})"
                )
        elif self.payload is not None:
            raise ValueError("payload only makes sense for deterministic specs")


def _rng(seed: int, trial: int = 0, stream: int = 0) -> np.random.Generator:
    """Counter-based stream: (seed, trial, stream) fully determine the draw."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
         np.uint64(((trial << 8) | stream) & 0xFFFFFFFFFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """standard_normal(shape) + 1j * standard_normal(shape), bit for bit and
    with the same draws, filled in place instead of through two temporaries."""
    z = np.empty(shape, dtype=np.complex128)
    z.real[...] = rng.standard_normal(shape)
    z.imag[...] = rng.standard_normal(shape)
    return z


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """QR of a complex Ginibre, each column of Q multiplied by the phase of
    R's diagonal entry there: that makes R's diagonal positive, which is what
    makes the law Haar (Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(_complex_normal(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


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


def _sample_rng(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of spec from rng."""
    n = spec.N
    if spec.kind == "deterministic":
        return spec.payload.astype(np.complex128)
    if spec.kind == "ginibre":
        return _complex_normal(rng, (n, n)) / math.sqrt(2 * n)
    if spec.kind == "gue":
        return _gue(rng, n)
    return _haar_unitary(rng, n)


def sample(spec: EnsembleSpec, trial: int = 0) -> np.ndarray:
    """One draw from the ensemble; trial selects an independent stream."""
    return _sample_rng(spec, _rng(spec.seed, trial))


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
    for integer N.  Odd n gives exactly zero: there is no pairing of an odd
    set.
    """
    if n < 0:
        raise ValueError(f"moment order must be >= 0, got {n}")
    if n > 20:
        raise ValueError(f"moment order {n} > 20")
    if n % 2 == 1:
        return {} if N is None else Fraction(0)
    expansion = {2 * g: cnt for g, cnt in enumerate(_genus_counts(n // 2))}
    if N is None:
        return expansion
    return sum((Fraction(cnt, N**r) for r, cnt in expansion.items()), Fraction(0))


def genus_profile(k: int) -> tuple:
    """(eps_0(2k), eps_1(2k), ...): pairings of [2k] by genus g, where the
    cycle count of gamma*pi is k+1-2g.  eps_0 = Cat_k and the total is
    (2k-1)!!."""
    if not 1 <= k <= 8:
        raise ValueError(f"k must be in 1..8, got {k}")
    return _genus_counts(k)


@dataclass(frozen=True)
class WeingartenValue:
    value: object
    error_bound: float
    exact: bool


@dataclass(frozen=True)
class WeingartenExpansion:
    """Monotone-factorization counts c_{n,r}(pi) and their 1/N resummation.

    coefficients holds c at r = |pi|, |pi|+2, ..., <= R (the off-parity
    counts vanish identically); raw holds every r for the invariant checks.
    The correlator is (1/N^n) sum_r (-1)^r c_r / N^r.
    """

    n: int
    permutation: Permutation
    R: int
    raw: tuple = field(repr=False)
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
            geom = Fraction(N * N, N * N - 1)
            tail = (
                Fraction((-1) ** r0 * self.raw[r0], N ** (self.n + r0))
                + Fraction((-1) ** (r0 + 1) * self.raw[r0 + 1], N ** (self.n + r0 + 1))
            ) * geom
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
    """
    n = permutation.n
    if n > 8:
        raise ValueError(f"permutation size {n} > 8")
    if R is None:
        R = permutation.cayley_distance + 10
    if R > 20:
        raise ValueError(f"truncation order {R} > 20")
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
    d = permutation.cayley_distance
    return WeingartenExpansion(
        n=n,
        permutation=permutation,
        R=R,
        raw=raw,
        coefficients=tuple(raw[r] for r in range(d, R + 1, 2)),
    )


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be non-negative")


def _run_trials(run, trials: int, workers: int):
    """run(t) for every trial t, in order or on a pool of ``workers`` threads.

    Each trial writes its values into its own row of a trial-indexed array,
    so the result does not depend on the order the trials finish in.
    """
    if workers <= 1:
        for t in range(trials):
            run(t)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(trials)))


def _mean_stderr(vals: np.ndarray) -> tuple:
    """Mean of per-trial values, as one pairwise sum, and its standard error
    (0 for a single trial), as Python scalars."""
    trials = len(vals)
    mean = (np.sum(vals) / trials).item()
    if trials == 1:
        return mean, 0.0
    return mean, math.sqrt(float(np.sum(np.abs(vals - mean) ** 2)) / (trials - 1) / trials)


def _normalize_word(word) -> list[tuple[int, bool]]:
    out = []
    for item in word:
        if isinstance(item, (tuple, list)):
            idx, adj = item
            out.append((int(idx), bool(adj)))
        else:
            out.append((int(item), False))
    if not out:
        raise ValueError("word must be non-empty")
    return out


def mc_word_moment(specs, word, trials: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo (E tr) of a matrix word, bit-reproducible across workers.

    word entries are spec indices or (index, adjoint) pairs.  Each trial
    samples every referenced spec from its own counter-based stream keyed by
    (spec seed, trial, spec position), so the estimate depends only on the
    specs, the word, and the trial count; per-trial values land in a
    trial-indexed array and are reduced with a single pairwise sum.  The
    last letter is never multiplied in: tr(P M) = sum_ij P_ij M_ji.
    """
    specs = list(specs)
    letters = _normalize_word(word)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ns = {s.N for s in specs}
    if len(ns) != 1:
        raise ValueError(f"dimension mismatch across specs: {sorted(ns)}")
    (n,) = ns
    used = sorted({idx for idx, _ in letters})
    for idx in used:
        if not 0 <= idx < len(specs):
            raise ValueError(f"word references spec {idx}, have {len(specs)}")
    vals = np.empty(trials, dtype=np.complex128)

    def run(trial: int):
        mats = {i: _sample_rng(specs[i], _rng(specs[i].seed, trial, i)) for i in used}
        factors = [mats[idx].conj().T if adj else mats[idx] for idx, adj in letters]
        prod = factors[0]
        for m in factors[1:-1]:
            prod = prod @ m
        if len(factors) == 1:
            vals[trial] = np.trace(prod) / n
        else:
            vals[trial] = np.sum(prod * factors[-1].T) / n

    _run_trials(run, trials, workers)
    mean, stderr = _mean_stderr(vals)
    return MCEstimate(mean=mean, stderr=stderr, trials=trials, seed=specs[0].seed)


@dataclass(frozen=True)
class FreenessRow:
    label: str
    empirical: float
    stderr: float
    predicted: float
    z: float


@dataclass(frozen=True)
class FreenessReport:
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


def _power_traces(h: np.ndarray, degree: int, hermitian: bool = True) -> np.ndarray:
    """tr h^k for k = 1..degree, from the powers of h up to ceil(degree/2).

    tr h^(a+b) = sum_ij (h^a)_ij (h^b)_ji, so each trace pairs two stored
    powers with a = ceil(k/2), b = floor(k/2).  For Hermitian h, (h^b)_ji is
    the conjugate of (h^b)_ij, and the pairing is one inner product with no
    temporary; otherwise it is the sum of h^a times the transpose of h^b.
    """
    powers = [None, h]
    for _ in range(2, (degree + 1) // 2 + 1):
        powers.append(powers[-1] @ h)
    out = np.empty(degree)
    out[0] = np.trace(h).real
    for k in range(2, degree + 1):
        low, high = powers[k // 2], powers[(k + 1) // 2]
        out[k - 1] = (np.vdot(low, high) if hermitian else np.sum(high * low.T)).real
    return out


def _rotated_diagonal_moments(g: np.ndarray, degree: int) -> np.ndarray:
    """tr(m^k)/N for k = 1..degree, m = U D U* + D, D = diag(1, -1, 1, ...).

    g is any basis (N x N/2, full rank) of the span of U's columns where
    D = +1; m depends only on that span.  With ge, go the rows of g where
    D = +1, -1, A = ge* ge and C = g* g = A + go* go: an orthonormal basis
    q = g R^-1 (C = R* R) has W = qe* qe = R^-* A R^-1, which is similar to
    M = C^-1 A, so tr W^j = tr M^j without orthonormalising.  The spectrum
    of m is +-2 cos(theta_i), cos^2(theta_i) the eigenvalues of W, so
    tr(m^(2j)) = 2 4^j tr(M^j) and every odd moment is exactly 0.
    """
    n = g.shape[0]
    ge, go = g[::2], g[1::2]
    a = ge.conj().T @ ge
    c = a + go.conj().T @ go
    traces = _power_traces(np.linalg.solve(c, a), degree // 2, hermitian=False)
    out = np.zeros(degree)
    out[1::2] = 2.0 * 4.0 ** np.arange(1, degree // 2 + 1) * traces / n
    return out


def _gue_pair_traces(x: np.ndarray, y: np.ndarray, degree: int) -> dict:
    """tr of the gue_gue words up to this degree, x and y Hermitian.

    tr(ab) = sum_ij conj(a_ij) b_ij for Hermitian a, one vdot with no N x N
    temporary; tr(xxyy) = ||xy||_F^2, because yx = (xy)*; the degree-4 and
    degree-6 words then need only the products xy and (xy)^2.
    """
    vals = {
        (0, 0): np.vdot(x, x),
        (0, 1): np.vdot(x, y),
        (1, 0): np.vdot(y, x),
        (1, 1): np.vdot(y, y),
    }
    if degree >= 4:
        xy = x @ y
        vals[(0, 1, 0, 1)] = np.sum(xy * xy.T)
        vals[(0, 0, 1, 1)] = np.vdot(xy, xy)
        if degree >= 6:
            vals[(0, 1, 0, 1, 0, 1)] = np.sum((xy @ xy) * xy.T)
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

    Each trial computes its traces by exact identities, so every estimate is
    the same random variable as the multiplied-out word.  rotated_diagonal
    draws only a basis g (an N x N/2 complex Ginibre) of the span of the N/2
    columns of U where D = +1, and never orthonormalises it: with A the Gram
    matrix of g's rows where D = +1 and C = g* g, the Gram matrix W of an
    orthonormal basis's rows where D = +1 is similar to C^-1 A, so one
    `np.linalg.solve(C, A)` gives tr W^j, the sums of cos^(2j) of the
    principal angles between the two subspaces (Halmos, Trans. AMS 144,
    1969; its limit law is the arcsine, Collins, PTRF 133, 2005).  Traces
    need no small-angle accuracy, which is what orthonormalising would buy.
    The odd moments are exactly 0.  gue_deterministic pairs stored powers of
    X + D, and gue_gue uses tr(xxyy) = ||xy||_F^2.
    """
    if kind not in ("gue_gue", "gue_deterministic", "rotated_diagonal"):
        raise ValueError(f"unknown experiment kind {kind!r}")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if kind == "rotated_diagonal" and N % 2:
        raise ValueError("rotated_diagonal needs even N for a balanced diagonal")

    if kind == "gue_gue":
        words = [(0, 0), (0, 1), (1, 0), (1, 1)]
        if degree >= 4:
            words += [(0, 1, 0, 1), (0, 0, 1, 1)]
        if degree >= 6:
            words += [(0, 1, 0, 1, 0, 1)]
        labels = ["".join("xy"[c] for c in w) for w in words]
        pred = [float(_nc2_colour_count(w)) for w in words]
        samples = np.empty((trials, len(words)))

        def run_gg(t: int):
            x = _gue(_rng(seed, t, 0), N)
            y = _gue(_rng(seed, t, 1), N)
            vals = _gue_pair_traces(x, y, degree)
            for j, w in enumerate(words):
                samples[t, j] = vals[w].real / N

        runner = run_gg
    else:
        diag = _bernoulli_diag(N)
        if kind == "gue_deterministic":
            kappas = zip(named_cumulants("semicircle", degree), named_cumulants("bernoulli", degree))
            pred = free_moments_from_cumulants([a + b for a, b in kappas])
        else:
            pred = named_moments("arcsine", degree)
        pred = [float(v) for v in pred]
        labels = [f"m{k}" for k in range(1, degree + 1)]
        samples = np.empty((trials, degree))

        def run_det(t: int):
            rng = _rng(seed, t, 0)
            if kind == "gue_deterministic":
                x = _gue(rng, N)
                samples[t] = _power_traces(x + np.diag(diag), degree) / N
            else:
                samples[t] = _rotated_diagonal_moments(_complex_normal(rng, (N, N // 2)), degree)

        runner = run_det

    _run_trials(runner, trials, workers)
    rows = []
    for j, label in enumerate(labels):
        mean, err = _mean_stderr(samples[:, j])
        rows.append(FreenessRow(label, mean, err, pred[j], _zscore(mean, pred[j], err)))
    return FreenessReport(kind=kind, N=N, trials=trials, degree=degree, rows=tuple(rows))


def _contraction_cycles(rho: Permutation, sigma: Permutation) -> list[int]:
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
            lengths = _contraction_cycles(rho, sig)
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
