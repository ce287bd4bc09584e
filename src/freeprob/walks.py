"""Return and first-return counting for simple random walks.

Three families of groups are covered: the integers Z, the lattices Z^d, and
the free groups F_d, all walked with uniform steps on the 2d standard
generators and their inverses.  Loop counts are exact big integers; return
probabilities switch to log-domain floats where asymptotic exponents are
being fitted rather than identities asserted.

For F_d the loop-generating function equals the moment generating function
of the d-fold free additive convolution of the arcsine law; `kesten_loops`
counts the loops directly, by a dynamic programme over the distance from the
identity in the Cayley tree (the tests check it against that identity).
`kesten_green` also
evaluates a closed-form expression whose denominator (1 - 16 z^2) is
specific to d = 2 while its numerator is written for general d; the two
return values agree only at d = 2, and for other ranks the truncated series
(built on the exact tree-distance DP) is the one to trust.
Both are reported side by side rather than silently reconciling them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "LoopCounts",
    "ReturnProbabilities",
    "KestenGreen",
    "first_return",
    "loops_lattice",
    "polya_diagnostic",
    "kesten_loops",
    "kesten_green",
]


@dataclass(frozen=True)
class LoopCounts:
    """Loop counts lambda(0..n_max) for a walk of degree 2*rank.

    group is a display label ("Z", "Z^2", "F_3"); rank is d.  lambda(n)
    counts length-n words in the 2d generators that reduce to the identity
    (free case) or sum to zero (lattice case).
    """

    group: str
    rank: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not self.values or self.values[0] != 1:
            raise ValueError("lambda(0) must equal 1")
        degree = 2 * self.rank
        for n, lam in enumerate(self.values):
            if n % 2 == 1 and lam != 0:
                raise ValueError(f"lambda({n}) must vanish for odd n, got {lam}")
            if lam < 0 or lam > degree**n:
                raise ValueError(f"lambda({n})={lam} outside [0, degree^n]")

    @property
    def degree(self) -> int:
        return 2 * self.rank


@dataclass(frozen=True)
class ReturnProbabilities:
    """Exact return probabilities rho(n) and first returns phi(n)."""

    values: tuple[Fraction, ...]
    first_returns: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("rho(0) must equal 1")
        if self.first_returns[0] != 0:
            raise ValueError("phi(0) must equal 0")
        for n, (rho, phi) in enumerate(zip(self.values, self.first_returns)):
            if not (0 <= phi <= rho <= 1):
                raise ValueError(f"need 0 <= phi <= rho <= 1 at n={n}")

    @classmethod
    def from_loops(cls, loops: LoopCounts) -> "ReturnProbabilities":
        deg = loops.degree
        rho = tuple(Fraction(lam, deg**n) for n, lam in enumerate(loops.values))
        return cls(values=rho, first_returns=tuple(first_return(rho)))


def first_return(rho: Sequence) -> list:
    """First-return sequence phi from the return sequence rho.

    Inverts rho(n) = sum_{k<=n} phi(k) rho(n-k) coefficient by coefficient
    (the generating-function identity R - 1 = F R).  Exact when rho is exact;
    a float ndarray input runs the same recursion vectorized in doubles.
    """
    if len(rho) == 0:
        raise ValueError("rho must contain at least rho(0)")
    if rho[0] != 1:
        raise ValueError(f"rho(0) must equal 1, got {rho[0]}")
    if isinstance(rho, np.ndarray) and rho.dtype.kind == "f":
        phi = np.zeros_like(rho)
        for n in range(1, len(rho)):
            phi[n] = rho[n] - phi[1:n] @ rho[n - 1:0:-1]
        return list(phi)
    phi = [rho[0] * 0]
    for n in range(1, len(rho)):
        acc = rho[n]
        for k in range(1, n):
            acc -= phi[k] * rho[n - k]
        phi.append(acc)
    return phi


def _central_binomials(n_max: int) -> list[int]:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    lam = [0] * (n_max + 1)
    for k in range(0, n_max // 2 + 1):
        lam[2 * k] = math.comb(2 * k, k)
    lam[0] = 1
    return lam


def loops_lattice(d: int, n_max: int) -> LoopCounts:
    """Exact loop counts on Z^d by binomial shuffling of per-axis loops.

    lambda_d(n) = sum_k C(n, k) lambda_{d-1}(k) lambda_1(n-k): a loop is a
    shuffle of loops along each axis.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    one = _central_binomials(n_max)
    lam = one[:]
    for _ in range(d - 1):
        lam = [
            sum(math.comb(n, k) * lam[k] * one[n - k] for k in range(0, n + 1, 2))
            if n % 2 == 0
            else 0
            for n in range(n_max + 1)
        ]
    label = "Z" if d == 1 else f"Z^{d}"
    return LoopCounts(group=label, rank=d, values=tuple(lam))


def _logsumexp(t: np.ndarray) -> float:
    """log sum exp(t), shifted by the maximum.  The maximal terms are split
    off and the rest enters through log1p, which keeps full relative
    precision when the maximum dominates (the arithmetic of
    scipy.special.logsumexp, without its per-call overhead)."""
    top = t.max()
    hit = t == top
    rest = np.exp(t - top)
    rest[hit] = 0.0
    count = float(np.count_nonzero(hit))
    s = rest.sum() / count
    return math.log1p(s) + math.log(count) + top


def _log_return_probs_lattice(d: int, n_max: int) -> np.ndarray:
    """log rho_d(n) for even n on Z^d, via log-domain EGF convolution.

    The exponential generating function of lambda_1 has coefficients
    1/(k!)^2 at x^{2k}; d-fold convolution then n! and (2d)^-n factors give
    rho.  Odd entries are -inf.
    """
    ns = np.arange(n_max + 1)
    lc1 = np.full(n_max + 1, -np.inf)
    ks = np.arange(0, n_max // 2 + 1)
    lc1[2 * ks] = -2.0 * np.vectorize(math.lgamma)(ks + 1.0)
    lcd = lc1.copy()
    for _ in range(d - 1):
        nxt = np.full(n_max + 1, -np.inf)
        for n in range(0, n_max + 1, 2):
            nxt[n] = _logsumexp(lcd[0 : n + 1 : 2] + lc1[n::-2])
        lcd = nxt
    lg_fact = np.vectorize(math.lgamma)(ns + 1.0)
    return lg_fact + lcd - ns * math.log(2 * d)


def polya_diagnostic(d: int, n_max: int) -> tuple[float, float]:
    """Partial sum of rho_d(n) and the fitted power-law decay exponent.

    Returns (sum_{n<=n_max} rho_d(n), slope of log rho_d(2k) against log k
    over the top half of the range).  The sum diverges with n_max for
    d <= 2 and converges for d >= 3; the slope estimates the -d/2 decay.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n_max < 200:
        raise ValueError(f"n_max must be >= 200 for a stable fit, got {n_max}")
    log_rho = _log_return_probs_lattice(d, n_max)
    partial_sum = float(np.sum(np.exp(log_rho[::2])))
    ks = np.arange(1, n_max // 2 + 1)
    sel = ks >= len(ks) // 2
    slope = np.polyfit(np.log(ks[sel]), log_rho[2 * ks[sel]], 1)[0]
    return partial_sum, float(slope)


def kesten_loops(d: int, n_max: int) -> LoopCounts:
    """Exact loop counts on the free group F_d.

    A radial walk on the Cayley tree: from the identity all 2d letters move
    one step out; from distance r > 0 exactly one letter moves in and 2d - 1
    move out.  lambda(n) is the number of length-n walks that end at the
    identity.  Only distances that can still return by n_max are kept.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    out = 2 * d - 1
    counts = [1]  # counts[r]: walks of the current length at distance r
    values = [1]
    for n in range(1, n_max + 1):
        reach = min(n, n_max - n)
        nxt = [0] * (reach + 1)
        for r, c in enumerate(counts):
            if not c:
                continue
            if r == 0:
                if reach >= 1:
                    nxt[1] += 2 * d * c
                continue
            nxt[r - 1] += c
            if r + 1 <= reach:
                nxt[r + 1] += out * c
        counts = nxt
        values.append(counts[0])
    label = "Z" if d == 1 else f"F_{d}"
    return LoopCounts(group=label, rank=d, values=tuple(values))


class KestenGreen(NamedTuple):
    closed_form_value: complex
    series_value: complex
    decay_base: float


_KESTEN_SERIES_ORDER = 64


def kesten_green(d: int, z: complex) -> KestenGreen:
    """Loop generating function of F_d at z, two ways, plus the decay base.

    closed_form_value evaluates
    (-(d-1) + d*sqrt(1 - 4(2d-1) z^2)) / (1 - 16 z^2) verbatim;
    series_value sums the exact loop counts through order 64.  The two agree
    for d = 2 only (see the module docstring); tests adjudicate with the
    tree DP.  decay_base estimates lim rho_d(n)^{1/n} from the series by a
    Richardson-extrapolated even-term ratio, which strips the n^{-3/2}
    prefactor; the limit is sqrt(2d-1)/d.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    z = complex(z)
    if abs(z) >= 0.9 / (2 * d):
        raise ValueError(
            f"|z|={abs(z):.4f} outside the series radius guard {0.9 / (2 * d):.4f}"
        )
    closed = (-(d - 1) + d * np.sqrt(1.0 - 4.0 * (2 * d - 1) * z * z)) / (
        1.0 - 16.0 * z * z
    )
    loops = kesten_loops(d, _KESTEN_SERIES_ORDER)
    series = complex(sum(lam * z**n for n, lam in enumerate(loops.values)))
    deg = 2 * d
    k2 = _KESTEN_SERIES_ORDER // 2 - 1
    k1 = k2 - 1
    ratio = [
        loops.values[2 * k + 2] / (loops.values[2 * k] * deg * deg) for k in (k1, k2)
    ]
    extrapolated = k2 * ratio[1] - k1 * ratio[0]
    return KestenGreen(
        closed_form_value=complex(closed),
        series_value=series,
        decay_base=float(math.sqrt(extrapolated)),
    )
