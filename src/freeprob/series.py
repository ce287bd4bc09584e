"""The free moment-cumulant recursion, in both directions.

With moment series L(z) = 1 + m_1 z + m_2 z^2 + ... and free cumulant series
K(z) = 1 + kappa_1 z + kappa_2 z^2 + ..., the free moment-cumulant relation
is one coefficient recursion, which reads two ways:

* as the functional equation L(z) = K(zL(z)), whose degree-n coefficient
  gives m_n in terms of kappa_1..kappa_n and lower moments;
* through the Cauchy transform G(z) = (1/z) L(1/z): the series
  V(w) = K(w)/w = 1/w + R(w) is the compositional inverse of G, V(G(z)) = z,
  and the R-transform R(w) = kappa_1 + kappa_2 w + ... has as coefficients
  the free cumulants that the functions below return.

(Nica & Speicher, *Lectures on the Combinatorics of Free Probability*, 2006.)

All coefficients are exact ``fractions.Fraction`` values unless the caller
feeds floats, in which case the same recursions run in floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

__all__ = [
    "free_moments_from_cumulants",
    "free_cumulants_from_moments",
]


def _graded(values):
    """(values, unscale) for a graded recursion that starts from the unit 1,
    such as those below: its degree-n output is a sum of products of
    inputs whose degrees add up to n.  So when every input is an int or a
    Fraction, with D the lcm of their denominators, scaling the degree-n
    input by D^n gives integer inputs, integer arithmetic throughout and a
    degree-n output D^n times the true one, which ``unscale`` divides out.
    Other inputs run as given, so floats stay floats throughout.
    """
    if all(isinstance(v, (int, Fraction)) for v in values):
        d = math.lcm(*(v.denominator for v in values))
        scaled = [v.numerator * (d**n // v.denominator) for n, v in enumerate(values, 1)]
        return scaled, lambda n, v: Fraction(v, d**n)
    return values, lambda n, v: v


class _PowerTable:
    """rows[s][j] = [z^j] L(z)^s for L = m[0] + m[1] z + ..., m[0] = 1.

    ``grow(n)`` appends and returns, in s order, the entries of degree
    s + j = n for s = 1..n, which need m up to m[n - 1] only.  Each sums
    rows[s-1][i] * m[j-i] over ascending i, skipping the terms with
    m[j-i] = 0 (so no inf * 0 turns a sum into NaN); the nonzero positions
    of m are found once per degree.  A zero sum is stored as the int 0.
    """

    def __init__(self, m: list):
        self.m = m
        self.rows = [[1]]

    def grow(self, n: int) -> list:
        m, rows = self.m, self.rows
        new, nonzero = [], []  # the t <= j with m[t] != 0, descending
        for j in range(n):
            if m[j] != 0:
                nonzero.insert(0, j)
            prev = rows[n - j - 1]
            val = sum([prev[j - t] * m[t] for t in nonzero])
            new.insert(0, val if val != 0 else 0)
        rows.append([])
        for row, val in zip(rows, [0] + new):
            row.append(val)
        return new


def free_moments_from_cumulants(kappa) -> list:
    """Moments m_1..m_N from free cumulants kappa_1..kappa_N via L = K(zL).

    Extracting the degree-n coefficient of L(z) = K(zL(z)) gives
    m_n = sum_{s=1}^{n} kappa_s [z^{n-s}] L(z)^s, which only involves lower
    moments; this is the coefficient recursion run here.  The semicircle's
    cumulants (0, 1, 0, ...) give the Catalan numbers at even orders:

    >>> [int(m) for m in free_moments_from_cumulants([0, 1, 0, 0, 0, 0])]
    [0, 1, 0, 2, 0, 5]
    """
    kappa, unscale = _graded(list(kappa))
    m = [1]
    powers = _PowerTable(m)
    for n in range(1, len(kappa) + 1):
        m.append(sum(map(mul, kappa, powers.grow(n))))
    return [unscale(n, v) for n, v in enumerate(m[1:], 1)]


def free_cumulants_from_moments(m) -> list:
    """Inverse of :func:`free_moments_from_cumulants` (same recursion solved
    for kappa_n, the only new unknown at degree n)."""
    m, unscale = _graded(list(m))
    full = [1] + m
    powers = _PowerTable(full)
    kappa: list = []
    for n in range(1, len(m) + 1):
        kappa.append(full[n] - sum(map(mul, kappa, powers.grow(n))))
    return [unscale(n, v) for n, v in enumerate(kappa, 1)]
