"""The free moment-cumulant recursion L(z) = K(zL(z)), both directions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exact_oracles
from freeprob.measures import named_cumulants
from freeprob.series import free_cumulants_from_moments, free_moments_from_cumulants

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


@pytest.mark.parametrize("forward, back", [
    (free_moments_from_cumulants, free_cumulants_from_moments),
    (free_cumulants_from_moments, free_moments_from_cumulants),
], ids=["from_cumulants", "from_moments"])
def test_recursions_round_trip_on_floats(forward, back):
    rnd = random.Random(7)
    for order in range(13):
        seq = [rnd.uniform(-2.0, 2.0) for _ in range(order)]
        image = forward(seq)
        again = back(image)
        assert len(again) == order
        # the degree-n terms summed on the way back are as large as the unit
        # and the image's coefficients through degree n, so rounding scales
        # with them
        for n, (a, b) in enumerate(zip(again, seq), 1):
            scale = max([1.0] + [abs(c) for c in image[:n]])
            assert abs(a - b) <= 1e-12 * scale


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


# ---------------------------------------------------------------------------
# The power table that tested m[j - i] != 0 term by term (tests/exact_oracles.py).

PAIRS = [
    (free_moments_from_cumulants, exact_oracles.free_moments_from_cumulants),
    (free_cumulants_from_moments, exact_oracles.free_cumulants_from_moments),
]


def sequences_with_zeros(rng, draw, count=20):
    for _ in range(count):
        yield [draw() if rng.random() < 0.6 else 0 for _ in range(rng.randint(0, 16))]


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "mixed"])
def test_power_table_matches_the_term_by_term_one(kind):
    rng = random.Random(13)
    draw = {
        "int": lambda: rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        "float": lambda: rng.uniform(-3, 3),
        # ints and Fractions among floats keep the whole run in floats
        "mixed": lambda: rng.choice([rng.uniform(-3, 3), rng.randint(-3, 3), Fraction(1, 3),
                                     Fraction(0), 0.0, -0.0]),
    }[kind]
    for seq in sequences_with_zeros(rng, draw):
        if kind == "float":
            seq = [rng.uniform(-3, 3)] + seq
        elif kind == "mixed":  # the run is in floats, but starts with ints
            seq = [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + seq + [0.5]
        for new, old in PAIRS:
            assert same_values_and_types(new(seq), old(seq)), seq


def test_power_table_keeps_nan_where_the_term_by_term_one_has_it():
    rng = random.Random(17)
    hits = 0
    for seq in sequences_with_zeros(rng, lambda: rng.choice(
            [rng.uniform(-3, 3), math.inf, -math.inf, 0.0]), count=40):
        seq = [rng.uniform(-3, 3)] + seq
        for new, old in PAIRS:
            got, want = new(seq), old(seq)
            assert same_values_and_types(got, want), seq
            hits += any(x != x for x in want)
    assert hits  # some inputs did reach NaN


def test_power_table_matches_the_term_by_term_one_at_order_40():
    for x, y, params in (("semicircle", "bernoulli", {}),
                         ("arcsine", "marchenko_pastur", {"lam": 0.5})):
        kappa = [a + b for a, b in zip(named_cumulants(x, 40), named_cumulants(y, 40, **params))]
        for new, old in PAIRS:
            assert same_values_and_types(new(kappa), old(kappa))
            floats = [float(k) for k in kappa]
            assert same_values_and_types(new(floats), old(floats))
