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
of the d-fold free additive convolution of the arcsine law.  Kesten's form
(Trans. AMS 92, 1959), (1 - 4 d^2 u) F(u) = d sqrt(1 - 4 (2d-1) u) - (d-1)
in u = z^2, read at u^k gives `kesten_loops` a one-term integer recurrence,
lambda(2k) = 4 d^2 lambda(2k-2) - 2d (2d-1)^k C_(k-1), C the Catalan numbers:
O(n_max) steps.  The O(n_max^2) tree-distance dynamic programme it replaced
lives on in the tests.  `kesten_green` reports Kesten's closed form and the
truncated series side by side, rather than silently reconciling them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from ._numpy import np

__all__ = [
    "LoopCounts",
    "ReturnProbabilities",
    "KestenGreen",
    "first_return",
    "loops_lattice",
    "polya_diagnostic",
    "kesten_loops",
    "kesten_decay_base",
    "kesten_green",
]


class LoopCounts:
    """Loop counts lambda(0..n_max) for a walk of degree 2*rank.

    group is a display label ("Z", "Z^2", "F_3"); rank is d.  lambda(n)
    counts length-n words in the 2d generators that reduce to the identity
    (free case) or sum to zero (lattice case).
    """

    def __init__(self, group: str, rank: int, values: tuple[int, ...]):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if not values or values[0] != 1:
            raise ValueError("lambda(0) must equal 1")
        degree = 2 * rank
        bound = 1  # degree^n
        for n, lam in enumerate(values):
            if n % 2 == 1 and lam != 0:
                raise ValueError(f"lambda({n}) must vanish for odd n, got {lam}")
            if lam < 0 or lam > bound:
                raise ValueError(f"lambda({n})={lam} outside [0, degree^n]")
            bound *= degree
        self.group = group
        self.rank = rank
        self.values = values

    @property
    def degree(self) -> int:
        return 2 * self.rank


class ReturnProbabilities:
    """Exact return probabilities rho(n) and first returns phi(n)."""

    def __init__(self, values: tuple[Fraction, ...], first_returns: tuple[Fraction, ...]):
        if not values or values[0] != 1:
            raise ValueError("rho(0) must equal 1")
        if first_returns[0] != 0:
            raise ValueError("phi(0) must equal 0")
        for n, (rho, phi) in enumerate(zip(values, first_returns)):
            if not (0 <= phi <= rho <= 1):
                raise ValueError(f"need 0 <= phi <= rho <= 1 at n={n}")
        self.values = values
        self.first_returns = first_returns

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
    by n_max.  Two zeros pad e past the kept j, so that e[j + 1] past them,
    and e[-1] at j = 0, read 0.

    >>> loops_lattice(2, 6).values
    (1, 0, 4, 0, 36, 0, 400)
    >>> loops_lattice(3, 8).values
    (1, 0, 6, 0, 90, 0, 1860, 0, 44730)
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    e = [1, 0, 0]
    lam = [1]
    for n in range(1, n_max + 1):
        top = min(n, d, n_max - n)
        nxt = [0] * (top + 3)
        for j in range(n & 1, top + 1, 2):
            nxt[j] = n * (4 * j * e[j - 1] + (d - j) * e[j + 1]) // (n + j)
        e = nxt
        lam.append(0 if n & 1 else e[0])
    label = "Z" if d == 1 else f"Z^{d}"
    return LoopCounts(group=label, rank=d, values=tuple(lam))


def _log_return_probs_lattice(d: int, n_max: int) -> np.ndarray:
    """log rho_d(n) for n <= n_max on Z^d; odd entries are -inf.

    Runs the recurrence of the module docstring in floats on
    r_j(n) = e_j(n) / (2d)^n, so rho_d(n) = r_0(n), padded as in
    `loops_lattice`.  The vector carries a power-of-two scale: whenever its
    largest entry leaves [2^-64, 2^63) it is multiplied back (exactly) and
    the exponent added to a running total, which keeps large d from
    underflowing (log rho_1000(1000) is about -910).
    """
    evens = [0.0]
    r = [1.0, 0.0, 0.0]
    exp2 = 0
    ln2 = math.log(2.0)
    # the kept range of every step at once; d is clipped to n_max first, so
    # numpy sees no int past the int64 range
    ns = np.arange(1, n_max + 1)
    tops = np.minimum(np.minimum(ns, min(d, n_max)), n_max - ns).tolist()
    for n, top in enumerate(tops, 1):
        nxt = [0.0] * (top + 3)
        step = n / (2 * d)
        for j in range(n & 1, top + 1, 2):
            nxt[j] = (4 * j * r[j - 1] + (d - j) * r[j + 1]) * step / (n + j)
        big = max(nxt)
        if not 2.0**-64 <= big < 2.0**63:
            e = math.frexp(big)[1]
            nxt = [math.ldexp(v, -e) for v in nxt]
            exp2 += e
        r = nxt
        if not n & 1:
            evens.append(math.log(r[0]) + exp2 * ln2)
    log_rho = np.full(n_max + 1, -math.inf)
    log_rho[::2] = evens
    return log_rho


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
    """Exact loop counts on the free group F_d, by Kesten's recurrence.

    lambda(n) counts the length-n words in the 2d generators that reduce to
    the identity.  t_k = 2d (2d-1)^k C_(k-1) of the module docstring's
    recurrence obeys t_(k+1) = t_k 2(2d-1)(2k-1) / (k+1), exactly in ints.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    q = 2 * d - 1
    lam, t = 1, 2 * d * q
    values = [1]
    for k in range(1, n_max // 2 + 1):
        lam = 4 * d * d * lam - t
        t = t * (2 * q * (2 * k - 1)) // (k + 1)
        values += (0, lam)
    if n_max % 2:
        values.append(0)
    return LoopCounts(group="Z" if d == 1 else f"F_{d}", rank=d, values=tuple(values))


class KestenGreen(NamedTuple):
    series_value: complex
    decay_base: float
    general_closed_form_value: complex


_KESTEN_SERIES_ORDER = 64


def _series_loops(d: int, loops: LoopCounts | None) -> LoopCounts:
    """Loop counts of F_d through order 64 at least: the caller's ``loops``
    when they reach it, else counted here."""
    if loops is not None and loops.group != f"F_{d}":
        raise ValueError(f"loops count walks on {loops.group}, not on F_{d}")
    if loops is None or len(loops.values) <= _KESTEN_SERIES_ORDER:
        loops = kesten_loops(d, _KESTEN_SERIES_ORDER)
    return loops


def kesten_decay_base(d: int, loops: LoopCounts | None = None) -> float:
    """lim rho_d(n)^{1/n} on F_d, estimated from the loop counts through
    order 64 by a Richardson-extrapolated even-term ratio, which strips the
    n^{-3/2} prefactor; the limit is sqrt(2d-1)/d.  ``loops`` as in
    `kesten_green`.  The ``kesten`` command reads this alone: it needs none
    of `kesten_green`'s complex values, nor cmath.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    values = _series_loops(d, loops).values
    deg = 2 * d
    k2 = _KESTEN_SERIES_ORDER // 2 - 1
    k1 = k2 - 1
    ratio = [values[2 * k + 2] / (values[2 * k] * deg * deg) for k in (k1, k2)]
    extrapolated = k2 * ratio[1] - k1 * ratio[0]
    return float(math.sqrt(extrapolated))


def kesten_green(d: int, z: complex, loops: LoopCounts | None = None) -> KestenGreen:
    """Loop generating function of F_d at z, two ways, plus the decay base.

    series_value sums the exact loop counts through order 64, and
    general_closed_form_value evaluates Kesten's form
    (-(d-1) + d*sqrt(1 - 4(2d-1) z^2)) / (1 - 4 d^2 z^2), which agrees with
    it at every d.  decay_base is `kesten_decay_base`.  ``loops``, the `kesten_loops` of F_d through order
    64 or beyond, is read instead of computing them again; shorter counts
    are not.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    z = complex(z)
    if abs(z) >= 0.9 / (2 * d):
        raise ValueError(
            f"|z|={abs(z):.4f} outside the series radius guard {0.9 / (2 * d):.4f}"
        )
    import cmath  # here, not at the top: importing the CLI loads no cmath

    numerator = -(d - 1) + d * cmath.sqrt(1.0 - 4.0 * (2 * d - 1) * z * z)
    general = numerator / (1.0 - 4.0 * d * d * z * z)
    loops = _series_loops(d, loops)
    values = loops.values[: _KESTEN_SERIES_ORDER + 1]
    series = complex(sum(lam * z**n for n, lam in enumerate(values)))
    return KestenGreen(
        series_value=series,
        decay_base=kesten_decay_base(d, loops),
        general_closed_form_value=complex(general),
    )
