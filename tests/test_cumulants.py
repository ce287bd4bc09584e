"""Moment/cumulant transforms on both partition lattices, mixed cumulants."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from enumeration import enumerate_partitions
from freeprob.cumulants import (
    MomentFunctional,
    classical_convolve_moments,
    cumulants_to_moments,
    mixed_cumulant,
    moments_to_cumulants,
)

# moments m_n = 2^C(n,2) count labelled graphs; their cumulants count the
# connected ones (classical lattice) and the "free-connected" ones
GRAPH_MOMENTS = [Fraction(2 ** (n * (n - 1) // 2)) for n in range(1, 8)]
CONNECTED = [1, 1, 4, 38, 728, 26704, 1866256]
FREE_CONNECTED = [1, 1, 4, 39, 748, 27162, 1880872]

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def test_graph_count_cumulants_classical():
    assert moments_to_cumulants(GRAPH_MOMENTS, lattice="classical") == CONNECTED


def test_graph_count_cumulants_free():
    assert moments_to_cumulants(GRAPH_MOMENTS, lattice="free") == FREE_CONNECTED


@pytest.mark.parametrize("lattice", ["classical", "free"])
def test_round_trip_exact(lattice):
    m = [Fraction(1, 2), Fraction(3), Fraction(-2, 5), Fraction(7), Fraction(0), Fraction(11, 3)]
    k = moments_to_cumulants(m, lattice=lattice)
    assert cumulants_to_moments(k, lattice=lattice) == m


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=6), st.sampled_from(["classical", "free"]))
def test_round_trip_property(m, lattice):
    k = moments_to_cumulants(m, lattice=lattice)
    back = cumulants_to_moments(k, lattice=lattice)
    assert back == [Fraction(v) for v in m]


def test_lattices_agree_up_to_order_three():
    # the partition lattices only differ from n=4 on (first crossing)
    m = [Fraction(1), Fraction(4), Fraction(9), Fraction(16), Fraction(25)]
    kc = moments_to_cumulants(m, lattice="classical")
    kf = moments_to_cumulants(m, lattice="free")
    assert kc[:3] == kf[:3]
    assert kc[3] != kf[3]


def test_classical_convolution_bernoulli_pair():
    # two centred coin flips: sum takes values -2, 0, 2 with weights 1/4, 1/2, 1/4
    bern = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    conv = classical_convolve_moments(bern, bern)
    assert conv == [Fraction(0), Fraction(2), Fraction(0), Fraction(8)]


def test_classical_convolution_is_cumulant_addition():
    mx = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    my = [Fraction(-1), Fraction(5), Fraction(0), Fraction(2)]
    direct = classical_convolve_moments(mx, my)
    kx = moments_to_cumulants(mx, lattice="classical")
    ky = moments_to_cumulants(my, lattice="classical")
    via_k = cumulants_to_moments([a + b for a, b in zip(kx, ky)], lattice="classical")
    assert direct == via_k


def test_moment_functional_factorizes():
    bern = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    cube = [Fraction(1), Fraction(1), Fraction(1), Fraction(1)]  # point mass at 1
    f = MomentFunctional.from_classical_independent({"x": bern, "y": cube}, 4)
    assert f.moment(("x", "x")) == 1
    assert f.moment(("x", "y")) == 0
    assert f.moment(("x", "y", "x", "y")) == 1  # E[x^2] E[y^2]
    assert f.moment(("y", "y", "y")) == 1
    with pytest.raises(ValueError):
        f.moment(("x",) * 5)


def test_classical_mixed_cumulants_of_independent_vanish():
    bern = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    f = MomentFunctional.from_classical_independent({"x": bern, "y": bern}, 4)
    for word in [("x", "y"), ("x", "x", "y"), ("x", "y", "x", "y"), ("x", "x", "y", "y")]:
        assert mixed_cumulant(f, word, lattice="classical") == 0
    # pure words recover the marginal cumulants
    assert mixed_cumulant(f, ("x", "x"), lattice="classical") == 1
    assert mixed_cumulant(f, ("x", "x", "x", "x"), lattice="classical") == -2


def test_free_mixed_cumulant_detects_classical_dependence():
    # classically independent is NOT free: the free mixed cumulant of xyxy
    # survives; its value comes from the moment 1 minus the two
    # colour-respecting NC pairings' lower terms
    bern = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    f = MomentFunctional.from_classical_independent({"x": bern, "y": bern}, 4)
    assert mixed_cumulant(f, ("x", "y", "x", "y"), lattice="free") == 1


# ---------------------------------------------------------------------------
# Partition-sum oracle for the coefficient recursions.


@lru_cache(maxsize=None)
def lattice_partitions(n, lattice):
    return enumerate_partitions(n, "all" if lattice == "classical" else "non-crossing")


def partition_sum_moments(cumulants, lattice):
    """m_n = sum over lattice partitions of prod over blocks of kappa_|B|."""
    out = []
    for n in range(1, len(cumulants) + 1):
        total = 0
        for p in lattice_partitions(n, lattice):
            term = 1
            for size in p.block_sizes():
                term *= cumulants[size - 1]
            total += term
        out.append(total)
    return out


def partition_sum_cumulants(moments, lattice):
    """The same sum solved for its one-block term, order by order."""
    kappa = []
    for n in range(1, len(moments) + 1):
        proper = 0
        for p in lattice_partitions(n, lattice):
            if p.block_count < 2:
                continue
            term = 1
            for size in p.block_sizes():
                term *= kappa[size - 1]
            proper += term
        kappa.append(moments[n - 1] - proper)
    return kappa


@pytest.mark.parametrize("lattice", ["classical", "free"])
def test_recursions_match_partition_sums(lattice):
    rng = random.Random(2097)
    for _ in range(6):
        seq = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)]
        kappa = moments_to_cumulants(seq, lattice=lattice)
        assert kappa == partition_sum_cumulants(seq, lattice)
        moments = cumulants_to_moments(seq, lattice=lattice)
        assert moments == partition_sum_moments(seq, lattice)
        # floats run the same recursions, within 1e-12 of the exact values
        for got, exact in (
            (moments_to_cumulants([float(v) for v in seq], lattice=lattice), kappa),
            (cumulants_to_moments([float(v) for v in seq], lattice=lattice), moments),
        ):
            assert all(abs(g - float(e)) <= 1e-12 * abs(float(e)) for g, e in zip(got, exact))


# ---------------------------------------------------------------------------
# Partition-sum oracle for the first-block recursion of mixed cumulants.


def partition_sum_mixed_cumulant(f, word, lattice, cache):
    """tau[word] minus the sum over lattice partitions with two or more blocks
    of the product of the cumulants of the subwords the blocks cut out."""
    if word not in cache:
        proper = 0
        for p in lattice_partitions(len(word), lattice):
            if p.block_count < 2:
                continue
            term = 1
            for b in p.blocks:
                sub = tuple(word[i - 1] for i in b)
                term *= partition_sum_mixed_cumulant(f, sub, lattice, cache)
            proper += term
        cache[word] = f.moment(word) - proper
    return cache[word]


@pytest.mark.parametrize("lattice", ["classical", "free"])
def test_mixed_cumulant_recursion_matches_partition_sum(lattice):
    rng = random.Random(1205)
    for _ in range(3):
        table = {
            w: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for d in range(1, 7)
            for w in itertools.product("xy", repeat=d)
        }
        f = MomentFunctional("xy", table, 6)
        cache = {}
        for w in table:
            assert mixed_cumulant(f, w, lattice) == partition_sum_mixed_cumulant(f, w, lattice, cache)
