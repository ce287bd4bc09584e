"""Truncated formal power series and Laurent series over exact rationals.

This module is the formal-series home of the generating functions used
throughout the package: ordinary moment series and their cumulant companions
under both the exponential formula M(z) = exp(C(z)) and its free analogue
L(z) = K(zL(z)), plus the Laurent-series pair G (moment series at infinity)
and V (its compositional inverse, a simple pole at zero) with V(G(z)) = z.
The coefficients of V after its leading 1 are the free cumulants and those of
G the moments, so V(G(z)) = z is L(z) = K(zL(z)) again, and inverting a
Laurent series is the same coefficient recursion.

All coefficients are exact ``fractions.Fraction`` values unless the caller
feeds floats, in which case the same recursions run in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "TruncatedSeries",
    "LaurentSeries",
    "solve_free_ogf",
    "laurent_invert",
    "free_moments_from_cumulants",
    "free_cumulants_from_moments",
]


def _as_coeff(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return x


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known through degree ``order`` = len(coeffs) - 1.

    Binary operations truncate to the smaller order of the two operands; no
    operation ever reports a coefficient beyond what the inputs determine.
    """

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        c = [_as_coeff(x) for x in coeffs]
        if order is not None:
            c = c[: order + 1] + [Fraction(0)] * (order + 1 - len(c))
        return cls(tuple(c))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def scale(self, c) -> "TruncatedSeries":
        c = _as_coeff(c)
        return TruncatedSeries(tuple(c * a for a in self.coeffs))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires zero constant term in the inner series")
        n = min(self.order, inner.order)
        acc = TruncatedSeries((_as_coeff(self.coeffs[n]),) + (Fraction(0),) * n)
        inner_t = inner.truncate(n)
        for k in range(n - 1, -1, -1):
            acc = acc * inner_t
            acc = TruncatedSeries((acc.coeffs[0] + self.coeffs[k],) + acc.coeffs[1:])
        return acc

    def reciprocal(self) -> "TruncatedSeries":
        """1/self; the constant term must be nonzero."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("reciprocal requires a nonzero constant term")
        inv0 = 1 / Fraction(a0) if isinstance(a0, (int, Fraction)) else 1.0 / a0
        out = [inv0]
        for n in range(1, self.order + 1):
            s = sum(self.coeffs[k] * out[n - k] for k in range(1, n + 1))
            out.append(-inv0 * s)
        return TruncatedSeries(tuple(out))

    def exp(self) -> "TruncatedSeries":
        """exp(self); requires zero constant term.  n e_n = sum k s_k e_{n-k}."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires zero constant term")
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            s = sum((k * self.coeffs[k] * out[n - k] for k in range(1, n + 1)), Fraction(0))
            out.append(s / n)
        return TruncatedSeries(tuple(out))

    def log(self) -> "TruncatedSeries":
        """log(self); requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        out = [Fraction(0)]
        for n in range(1, self.order + 1):
            s = sum((k * out[k] * self.coeffs[n - k] for k in range(1, n)), Fraction(0))
            out.append(self.coeffs[n] - s / n)
        return TruncatedSeries(tuple(out))


def _graded(values):
    """(unit, values, unscale) for the graded recursions below.

    The recursions are graded: the degree-n output is a sum of products of
    inputs whose degrees add up to n.  So when every input is an int or a
    Fraction, with D the lcm of their denominators, scaling the degree-n
    input by D^n gives integer inputs, integer arithmetic throughout and a
    degree-n output D^n times the true one, which ``unscale`` divides out.
    Other inputs run as given, from the unit Fraction(1).
    """
    if all(isinstance(v, (int, Fraction)) for v in values):
        d = math.lcm(*(v.denominator for v in values))
        scaled = [(v * d**n).numerator for n, v in enumerate(values, 1)]
        return 1, scaled, lambda n, v: Fraction(v, d**n)
    return Fraction(1), values, lambda n, v: v


class _PowerTable:
    """rows[s][j] = [z^j] L(z)^s for L = m[0] + m[1] z + ..., m[0] the unit.

    ``grow(n)`` appends the entries of degree s + j = n for s = 1..n, which
    need m up to m[n - 1] only, so the table can grow while m is solved for.
    Each entry sums rows[s-1][i] * m[j-i] over ascending i, skipping the
    terms with m[j-i] = 0, and a zero sum is stored as the exact zero.
    """

    def __init__(self, m: list):
        self.m = m
        self.zero = 0 * m[0]
        self.rows = [[m[0]]]

    def grow(self, n: int):
        m, rows = self.m, self.rows
        rows[0].append(self.zero)
        rows.append([])
        for s in range(1, n + 1):
            j = n - s
            prev = rows[s - 1]
            val = sum(prev[i] * m[j - i] for i in range(j + 1) if m[j - i] != 0)
            rows[s].append(val if val != 0 else self.zero)


def free_moments_from_cumulants(kappa, order: int | None = None) -> list:
    """Moments m_1..m_N from free cumulants kappa_1..kappa_N via L = K(zL).

    Extracting the degree-n coefficient of L(z) = K(zL(z)) gives
    m_n = sum_{s=1}^{n} kappa_s [z^{n-s}] L(z)^s, which only involves lower
    moments; this is the coefficient recursion run here.
    """
    kappa = list(kappa)
    n_max = len(kappa) if order is None else order
    unit, kappa, unscale = _graded(kappa[:n_max])
    m = [unit]
    powers = _PowerTable(m)
    for n in range(1, n_max + 1):
        powers.grow(n)
        m.append(sum(kappa[s - 1] * powers.rows[s][n - s] for s in range(1, n + 1)))
    return [unscale(n, v) for n, v in enumerate(m[1:], 1)]


def free_cumulants_from_moments(m, order: int | None = None) -> list:
    """Inverse of :func:`free_moments_from_cumulants` (same recursion solved
    for kappa_n, the only new unknown at degree n)."""
    m = list(m)
    n_max = len(m) if order is None else order
    unit, m, unscale = _graded(m[:n_max])
    full = [unit] + m
    powers = _PowerTable(full)
    kappa: list = []
    for n in range(1, n_max + 1):
        powers.grow(n)
        s = sum(kappa[j - 1] * powers.rows[j][n - j] for j in range(1, n))
        kappa.append(full[n] - s)
    return [unscale(n, v) for n, v in enumerate(kappa, 1)]


def solve_free_ogf(series: TruncatedSeries, direction: str) -> TruncatedSeries:
    """Solve the free functional equation L(z) = K(zL(z)) in either direction.

    direction "K->L": series is K (constant term 1), returns L.
    direction "L->K": series is L (constant term 1), returns K.
    Round trips are identities to the truncation order.

    >>> K = TruncatedSeries.from_coeffs([1, 0, 1], order=8)
    >>> solve_free_ogf(K, "K->L").coeffs[::2]
    (Fraction(1, 1), Fraction(1, 1), Fraction(2, 1), Fraction(5, 1), Fraction(14, 1))
    """
    if series.coeffs[0] != 1:
        raise ValueError("input must have constant term 1")
    n = series.order
    if direction == "K->L":
        m = free_moments_from_cumulants(series.coeffs[1:], order=n)
        return TruncatedSeries.from_coeffs([1] + m)
    if direction == "L->K":
        kappa = free_cumulants_from_moments(series.coeffs[1:], order=n)
        return TruncatedSeries.from_coeffs([1] + kappa)
    raise ValueError(f"direction must be 'K->L' or 'L->K', got {direction!r}")


@dataclass(frozen=True)
class LaurentSeries:
    """Finitely many ascending powers of a formal variable, starting possibly
    below zero.

    ``coeffs[k]`` is the coefficient of x^(leading_index + k) where x is the
    series' own variable.  Two shapes appear in practice:

    * V-form (pole at zero): leading_index = -1 in the variable w, e.g.
      V(w) = 1/w + kappa_1 + kappa_2 w + ...
    * G-form (vanishing at infinity): leading_index = +1 in the reciprocal
      variable u = 1/z, e.g. G(z) = u + m_1 u^2 + ... = 1/z + m_1/z^2 + ...
      (a simple zero at infinity cannot be stored as ascending powers of z
      itself, so the reciprocal variable is the series' native one).
    """

    leading_index: int
    coeffs: tuple

    @classmethod
    def from_coeffs(cls, leading_index: int, coeffs) -> "LaurentSeries":
        c = tuple(_as_coeff(x) for x in coeffs)
        if c and all(x == 0 for x in c):
            raise ValueError("identically zero Laurent series")
        if c and c[0] == 0:
            raise ValueError("leading coefficient must be nonzero")
        return cls(leading_index, c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def laurent_invert(series: LaurentSeries) -> LaurentSeries:
    """Compositional inverse across the V-form/G-form pair.

    V(w) = 1/w + kappa_1 + kappa_2 w + ... has the free cumulants as its
    coefficients after the leading 1, and G(z) = 1/z + m_1/z^2 + ... the
    moments, so V(G(z)) = z is the free functional equation L = K(zL) and
    each direction is one coefficient recursion: a V-form input returns the
    G-form (1, *free_moments_from_cumulants(kappa)), a G-form input the
    V-form (1, *free_cumulants_from_moments(m)).  Applying the operation
    twice returns the original series.
    """
    if not series.coeffs or series.coeffs[0] != 1:
        raise ValueError("leading coefficient must be 1 (simple pole of residue one)")
    tail = series.coeffs[1:]
    if series.leading_index == -1:
        return LaurentSeries.from_coeffs(1, [1, *free_moments_from_cumulants(tail)])
    if series.leading_index == 1:
        return LaurentSeries.from_coeffs(-1, [1, *free_cumulants_from_moments(tail)])
    raise ValueError(
        f"wrong pole structure: leading_index must be -1 (V-form) or +1 (G-form), got {series.leading_index}"
    )
