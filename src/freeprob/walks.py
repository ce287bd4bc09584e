"""Return and first-return counting for simple random walks.

Three families of groups are covered: the integers Z, the lattices Z^d, and
the free groups F_d, all walked with uniform steps on the 2d standard
generators and their inverses.  Loop counts are exact big integers; return
probabilities are floats where asymptotic exponents are being fitted rather
than identities asserted.

On Z^d both come from one recurrence.  The loop counts have the exponential
generating function f^d with f = I_0(2x) = sum_k x^(2k)/k!^2, which solves
x f'' + f' - 4x f = 0.  Put g_j = f^(d-j) (f')^j for j = 0..d; then
x g_j' = (d-j) x g_(j+1) + 4j x g_(j-1) - j g_j, so e_j(n) = n! [x^n] g_j obeys

    e_j(n) = n ((d-j) e_(j+1)(n-1) + 4j e_(j-1)(n-1)) / (n+j),  e(0) = (1, 0, ..., 0),

and lambda_d(n) = e_0(n).  Every e_j(n) is an integer (g_j is a product of
EGFs of integer sequences), so the division is exact.  Every coefficient
and every term is non-negative, so the same recurrence in floats, on
r_j(n) = e_j(n) / (2d)^n, has no cancellation: rho_d(n) = r_0(n) costs
O(n d) for every d.

For F_d the loop-generating function equals the moment generating function
of the d-fold free additive convolution of the arcsine law; `kesten_loops`
counts the loops directly, by a dynamic programme over the distance from the
identity in the Cayley tree (the tests check it against that identity).
`kesten_green` also evaluates two closed forms.  `closed_form_value` has a
denominator (1 - 16 z^2) specific to d = 2 while its numerator is written
for general d, so it agrees with the truncated series (built on the exact
tree-distance DP) only at d = 2; `general_closed_form_value` has the
denominator 1 - 4 d^2 z^2 and agrees at every d.  All three are reported
side by side rather than silently reconciling them.
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
    (the generating-function identity R - 1 = F R), in the arithmetic of the
    entries: exact when rho is exact, in doubles for floats or a float ndarray.
    """
    if len(rho) == 0:
        raise ValueError("rho must contain at least rho(0)")
    if rho[0] != 1:
        raise ValueError(f"rho(0) must equal 1, got {rho[0]}")
    phi = [rho[0] * 0]
    for n in range(1, len(rho)):
        acc = rho[n]
        for k in range(1, n):
            acc -= phi[k] * rho[n - k]
        phi.append(acc)
    return phi


def loops_lattice(d: int, n_max: int) -> LoopCounts:
    """Exact loop counts on Z^d by the Bessel-power recurrence.

    Runs e_j(n) of the module docstring in Python ints; lambda_d(n) = e_0(n).
    Only j <= min(n, d, n_max - n) is kept: a larger j cannot come back to 0
    by n_max.

    >>> loops_lattice(2, 6).values
    (1, 0, 4, 0, 36, 0, 400)
    >>> loops_lattice(3, 8).values
    (1, 0, 6, 0, 90, 0, 1860, 0, 44730)
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    e = [1]
    lam = [1]
    for n in range(1, n_max + 1):
        top = min(n, d, n_max - n)
        nxt = [0] * (top + 1)
        for j in range(n % 2, top + 1, 2):
            acc = 4 * j * e[j - 1] if j else 0
            if j + 1 < len(e):
                acc += (d - j) * e[j + 1]
            nxt[j] = n * acc // (n + j)
        e = nxt
        lam.append(e[0] if n % 2 == 0 else 0)
    label = "Z" if d == 1 else f"Z^{d}"
    return LoopCounts(group=label, rank=d, values=tuple(lam))


def _log_return_probs_lattice(d: int, n_max: int) -> np.ndarray:
    """log rho_d(n) for n <= n_max on Z^d; odd entries are -inf.

    Runs the recurrence of the module docstring in floats on
    r_j(n) = e_j(n) / (2d)^n, so rho_d(n) = r_0(n).  The vector carries a
    power-of-two scale: whenever its largest entry leaves [2^-64, 2^63) it is
    multiplied back (exactly) and the exponent added to a running total,
    which keeps large d from underflowing (log rho_1000(1000) is about -910).
    """
    log_rho = [-math.inf] * (n_max + 1)
    log_rho[0] = 0.0
    r = [1.0]
    exp2 = 0
    ln2 = math.log(2.0)
    for n in range(1, n_max + 1):
        top = min(n, d, n_max - n)
        nxt = [0.0] * (top + 1)
        step = n / (2 * d)
        for j in range(n % 2, top + 1, 2):
            acc = 4 * j * r[j - 1] if j else 0.0
            if j + 1 < len(r):
                acc += (d - j) * r[j + 1]
            nxt[j] = acc * step / (n + j)
        e = math.frexp(max(nxt))[1]
        if not -64 < e < 64:
            nxt = [math.ldexp(v, -e) for v in nxt]
            exp2 += e
        r = nxt
        if n % 2 == 0:
            log_rho[n] = math.log(r[0]) + exp2 * ln2
    return np.array(log_rho)


def polya_diagnostic(d: int, n_max: int) -> tuple[float, float]:
    """Partial sum of rho_d(n) and the fitted power-law decay exponent.

    Returns (sum_{n<=n_max} rho_d(n), slope of log rho_d(2k) against log k
    over the top half of the range).  The sum diverges with n_max for
    d <= 2 and converges for d >= 3; the slope estimates the -d/2 decay.
    rho_d(n) comes from the Bessel-power recurrence of the module docstring,
    run in floats with a running power-of-two scale, in O(n_max d) steps.
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
    general_closed_form_value: complex


_KESTEN_SERIES_ORDER = 64


def kesten_green(d: int, z: complex) -> KestenGreen:
    """Loop generating function of F_d at z, three ways, plus the decay base.

    closed_form_value evaluates
    (-(d-1) + d*sqrt(1 - 4(2d-1) z^2)) / (1 - 16 z^2) verbatim;
    series_value sums the exact loop counts through order 64.  The two agree
    for d = 2 only (see the module docstring); tests adjudicate with the
    tree DP.  general_closed_form_value is Kesten's form for every d,
    (-(d-1) + d*sqrt(1 - 4(2d-1) z^2)) / (1 - 4 d^2 z^2), which agrees with
    series_value.  decay_base estimates lim rho_d(n)^{1/n} from the series by a
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
    numerator = -(d - 1) + d * np.sqrt(1.0 - 4.0 * (2 * d - 1) * z * z)
    closed = numerator / (1.0 - 16.0 * z * z)
    general = numerator / (1.0 - 4.0 * d * d * z * z)
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
        general_closed_form_value=complex(general),
    )
