"""Truncated/Laurent series arithmetic and the free OGF functional equation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freeprob.series import (
    LaurentSeries,
    TruncatedSeries,
    free_cumulants_from_moments,
    free_moments_from_cumulants,
    laurent_invert,
    solve_free_ogf,
)

CATALAN = [Fraction(c) for c in (1, 1, 2, 5, 14, 42, 132, 429)]

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def test_semicircle_moments_from_cumulants():
    # kappa = (0, 1, 0, 0, ...) generates the interleaved Catalan numbers
    kappa = [Fraction(0), Fraction(1)] + [Fraction(0)] * 10
    m = free_moments_from_cumulants(kappa)
    assert m[1::2] == CATALAN[1:7]
    assert all(v == 0 for v in m[0::2])


def test_free_transforms_round_trip_exact():
    m = [Fraction(1), Fraction(2), Fraction(9, 2), Fraction(12), Fraction(-3, 7)]
    k = free_cumulants_from_moments(m)
    assert free_moments_from_cumulants(k) == m


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=7))
def test_free_round_trip_property(m):
    k = free_cumulants_from_moments(m)
    assert free_moments_from_cumulants(k) == [Fraction(v) for v in m]
    assert all(isinstance(v, Fraction) for v in k)


def test_solve_free_ogf_doc_case():
    # K = 1 + z^2: L collects the Catalan numbers at even orders
    K = TruncatedSeries.from_coeffs([1, 0, 1], order=12)
    L = solve_free_ogf(K, "K->L")
    assert list(L.coeffs[::2]) == CATALAN[:7]


def test_solve_free_ogf_round_trip():
    K = TruncatedSeries.from_coeffs(
        [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(0), Fraction(5, 7)],
        order=9,
    )
    L = solve_free_ogf(K, "K->L")
    back = solve_free_ogf(L, "L->K")
    assert back.coeffs == K.truncate(9).coeffs


def test_ring_ops():
    a = TruncatedSeries.from_coeffs([Fraction(1), Fraction(2)], order=6)
    b = TruncatedSeries.from_coeffs([Fraction(1), Fraction(-1), Fraction(3)], order=6)
    total = a + b
    prod = a * b
    assert total.coeffs[:3] == (Fraction(2), Fraction(1), Fraction(3))
    assert prod.coeffs[:3] == (Fraction(1), Fraction(1), Fraction(1))
    one = b * b.reciprocal()
    assert one.coeffs == (Fraction(1),) + (Fraction(0),) * 6


def test_reciprocal_needs_unit_constant_term():
    zero_led = TruncatedSeries.from_coeffs([0, 1], order=4)
    with pytest.raises(ValueError):
        zero_led.reciprocal()


def derivative(s):
    """d/dz of a truncated series, one order lower."""
    return TruncatedSeries(tuple(k * s.coeffs[k] for k in range(1, s.order + 1)))


def test_exp_log_round_trip():
    s = TruncatedSeries.from_coeffs(
        [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3)], order=8
    )
    e = s.exp()
    assert e.coeffs[0] == 1
    back = e.log()
    assert back.coeffs == s.truncate(8).coeffs
    # d/dz exp(s) = s' * exp(s)
    lhs = derivative(e)
    rhs = derivative(s) * e.truncate(7)
    assert lhs.coeffs == rhs.coeffs[: len(lhs.coeffs)]


def test_compose():
    f = TruncatedSeries.from_coeffs([Fraction(1), Fraction(1)], order=5)  # 1 + z
    g = TruncatedSeries.from_coeffs([Fraction(0), Fraction(2), Fraction(1)], order=5)
    h = f.compose(g)  # 1 + 2z + z^2
    assert h.coeffs == (Fraction(1), Fraction(2), Fraction(1), 0, 0, 0)
    with pytest.raises(ValueError):
        g.compose(f)  # inner series needs zero constant term


def test_laurent_invert_semicircle_pair():
    # V(w) = 1/w + w  <->  G with G(z) ~ 1/z + Catalan tail at even offsets
    V = LaurentSeries(-1, tuple(Fraction(c) for c in (1, 0, 1, 0, 0, 0, 0, 0, 0, 0)))
    G = laurent_invert(V)
    assert G.leading_index == 1
    # G stored ascending in 1/z: coefficients of z^{-1}, z^{-2}, ...
    assert G.coeffs[0] == 1
    assert all(c == 0 for c in G.coeffs[1::2])
    assert list(G.coeffs[2::2]) == CATALAN[1 : 1 + len(G.coeffs[2::2])]


def test_laurent_invert_is_involution():
    V = LaurentSeries(
        -1, (Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(1, 3), Fraction(4))
    )
    again = laurent_invert(laurent_invert(V))
    assert again.leading_index == V.leading_index
    assert again.coeffs[: len(V.coeffs)] == V.coeffs


@pytest.mark.parametrize("leading_index", [-1, 1])
def test_laurent_invert_round_trips_on_floats(leading_index):
    rnd = random.Random(7)
    for order in range(13):
        coeffs = (1.0,) + tuple(rnd.uniform(-2.0, 2.0) for _ in range(order))
        inverse = laurent_invert(LaurentSeries(leading_index, coeffs))
        again = laurent_invert(inverse)
        assert again.leading_index == leading_index
        # the degree-n terms summed on the way back are as large as the
        # inverse's coefficients through degree n, so rounding scales with them
        for n, (a, b) in enumerate(zip(again.coeffs, coeffs)):
            scale = max(abs(c) for c in inverse.coeffs[: n + 1])
            assert abs(a - b) <= 1e-12 * scale


@settings(max_examples=40)
@given(st.lists(rationals, min_size=2, max_size=6))
def test_laurent_round_trip_property(tail):
    V = LaurentSeries(-1, (Fraction(1),) + tuple(Fraction(v) for v in tail))
    again = laurent_invert(laurent_invert(V))
    assert again.coeffs[: len(V.coeffs)] == V.coeffs


def test_truncation_order_tracking():
    s = TruncatedSeries.from_coeffs([1, 1, 1, 1], order=3)
    assert s.order == 3
    assert s.truncate(2).order == 2
    t = s.scale(Fraction(1, 2))
    assert t.coeffs[1] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# The memoised [z^j] L^s recursion that the graded integer table replaced.


class OldPowerTable:
    """Lazy table of [z^j] L(z)^s for a moment list m (m[0] = 1)."""

    def __init__(self, m: list):
        self.m = m
        self.table = {(0, 0): Fraction(1)}

    def get(self, s: int, j: int):
        key = (s, j)
        val = self.table.get(key)
        if val is None:
            if s == 0:
                val = Fraction(0)
            else:
                val = sum(
                    self.get(s - 1, i) * self.m[j - i]
                    for i in range(j + 1)
                    if self.m[j - i] != 0
                )
                if val == 0:
                    val = Fraction(0)
            self.table[key] = val
        return val


def old_moments_from_cumulants(kappa):
    m = [Fraction(1)] + [None] * len(kappa)
    powers = OldPowerTable(m)
    for n in range(1, len(kappa) + 1):
        m[n] = sum(kappa[s - 1] * powers.get(s, n - s) for s in range(1, n + 1))
    return m[1:]


def old_cumulants_from_moments(m):
    full = [Fraction(1)] + list(m)
    powers = OldPowerTable(full)
    kappa = []
    for n in range(1, len(m) + 1):
        s = sum(kappa[j - 1] * powers.get(j, n - j) for j in range(1, n))
        kappa.append(full[n] - s)
    return kappa


def same_values_and_types(a, b):
    return [(type(x), repr(x)) for x in a] == [(type(x), repr(x)) for x in b]


def test_graded_table_matches_memoised_recursion():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(1, 14)
        seq = [
            Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 12, 35]))
            if rng.random() < 0.8 else Fraction(0)
            for _ in range(n)
        ]
        assert same_values_and_types(
            free_cumulants_from_moments(seq), old_cumulants_from_moments(seq))
        assert same_values_and_types(
            free_moments_from_cumulants(seq), old_moments_from_cumulants(seq))


def test_float_recursion_is_bit_identical_to_memoised_one():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(0, 13)
        # one float makes the whole run float; the exact zeros stay mixed in
        seq = [rng.uniform(-3, 3)] + [
            rng.uniform(-3, 3) if rng.random() < 0.7 else rng.choice([0.0, -0.0, 0, Fraction(0)])
            for _ in range(n)
        ]
        assert same_values_and_types(
            free_cumulants_from_moments(seq), old_cumulants_from_moments(seq))
        assert same_values_and_types(
            free_moments_from_cumulants(seq), old_moments_from_cumulants(seq))
