"""Earlier forms of exact-layer routines, kept as oracles.

The library computes these in fewer operations now; the tests require the
same values (and, for floats, the same bits) from both:

* ``tree_dp_loops``: loops on the free group F_d by a dynamic programme over
  the distance from the identity in the Cayley tree, O(n_max^2) big-integer
  additions (the library uses Kesten's one-term recurrence).
* ``log_return_probs_lattice``: log rho_d(n) on Z^d by the Bessel-power
  recurrence in floats, with a branch for the absent r_(j+1) and a frexp test
  for the rescale.
* ``PowerTable`` and the two free moment-cumulant functions built on it:
  each entry of the table of [z^j] L(z)^s tests m[j - i] != 0 term by term in
  a filtered generator.
* ``moments_per_order``: a measure's moments by two sums per order, over
  its point masses and over its density's nodes (the library sums one power
  table per node set).
* ``marchenko_pastur_moments``: the Marchenko-Pastur law's exact moments by
  the free moment-cumulant recursion on its cumulants lam alpha^n (the
  library takes the Narayana sum).
* ``worst_error_fractions``: the CLI's worst moment error by Fraction
  arithmetic, one Fraction per term (the library cross-multiplies the
  integer ratios of the floats and divides once).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from freeprob.series import _graded


def tree_dp_loops(d: int, n_max: int) -> tuple:
    """lambda(0..n_max) on F_d by the radial walk on the Cayley tree.

    From the identity all 2d letters move one step out; from distance r > 0
    exactly one letter moves in and 2d - 1 move out.  Only distances that
    can still return by n_max are kept.
    """
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
    return tuple(values)


def log_return_probs_lattice(d: int, n_max: int) -> np.ndarray:
    """log rho_d(n) for n <= n_max on Z^d; odd entries are -inf."""
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


class PowerTable:
    """rows[s][j] = [z^j] L(z)^s for L = m[0] + m[1] z + ..., m[0] = 1."""

    def __init__(self, m: list):
        self.m = m
        self.rows = [[1]]

    def grow(self, n: int):
        m, rows = self.m, self.rows
        rows[0].append(0)
        rows.append([])
        for s in range(1, n + 1):
            j = n - s
            prev = rows[s - 1]
            val = sum(prev[i] * m[j - i] for i in range(j + 1) if m[j - i] != 0)
            rows[s].append(val if val != 0 else 0)


def free_moments_from_cumulants(kappa) -> list:
    kappa, unscale = _graded(list(kappa))
    m = [1]
    powers = PowerTable(m)
    for n in range(1, len(kappa) + 1):
        powers.grow(n)
        m.append(sum(kappa[s - 1] * powers.rows[s][n - s] for s in range(1, n + 1)))
    return [unscale(n, v) for n, v in enumerate(m[1:], 1)]


def free_cumulants_from_moments(m) -> list:
    m, unscale = _graded(list(m))
    full = [1] + m
    powers = PowerTable(full)
    kappa: list = []
    for n in range(1, len(m) + 1):
        powers.grow(n)
        s = sum(kappa[j - 1] * powers.rows[j][n - j] for j in range(1, n))
        kappa.append(full[n] - s)
    return [unscale(n, v) for n, v in enumerate(kappa, 1)]


def moments_per_order(mu, n_max: int) -> np.ndarray:
    """m_1..m_n_max of a `Measure`, order by order; a moment that overflows
    is taken again as s^n sum w (p/s)^n, s the largest |node|."""
    p, w, t, tw = mu._poles, mu._weights, mu._t, mu._tw
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array([float(np.sum(w * p**n)) + float(np.sum(tw * t**n))
                        for n in range(1, n_max + 1)])
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            s = max(np.abs(p).max(initial=0.0), np.abs(t).max(initial=0.0))
            for i in bad:
                n = i + 1
                scaled = float(np.sum(w * (p / s) ** n)) + float(np.sum(tw * (t / s) ** n))
                out[i] = np.float64(s) ** n * scaled if scaled else 0.0
    return out


def marchenko_pastur_moments(order: int, lam: float, alpha: float) -> list:
    """m_1..m_order of Marchenko-Pastur(lam, alpha), as Fractions of the float
    parameters, from its free cumulants kappa_n = lam alpha^n."""
    lam, alpha = Fraction(lam), Fraction(alpha)
    return free_moments_from_cumulants([lam * alpha**n for n in range(1, order + 1)])


def worst_error_fractions(got: list, exact: list) -> float:
    """max |a - b|/max(1, |b|) over floats a and Fractions b, in exact
    arithmetic, since b need not fit a float; inf if some a is not finite, or
    the result does not fit a float."""
    if not all(math.isfinite(a) for a in got):
        return math.inf
    worst = max(abs(Fraction(a) - b) / max(1, abs(b)) for a, b in zip(got, exact))
    return float(worst) if worst < sys.float_info.max else math.inf
