"""Partition enumeration (the tests' oracle), crossing tests, and the
permutation bridge."""

import doctest
import math
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import enumeration
from enumeration import (
    DEFAULT_CAPS,
    EnumerationCapError,
    Partition,
    enumerate_partitions,
    fuse_crossings,
    is_crossing,
    to_permutation,
)
from freeprob.partitions import Permutation, is_geodesic, permutation_stats

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def _dfact(n):
    out = 1
    for j in range(1, n, 2):
        out *= j
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_family_counts(n):
    assert len(enumerate_partitions(n, "all")) == BELL[n]
    assert len(enumerate_partitions(n, "non-crossing")) == CATALAN[n]
    pair = enumerate_partitions(n, "pairings")
    ncp = enumerate_partitions(n, "nc-pairings")
    if n % 2:
        assert pair == [] and ncp == []
    else:
        assert len(pair) == _dfact(n)
        assert len(ncp) == CATALAN[n // 2]


def test_partitions_are_valid_and_families_nest():
    for n in range(1, 7):
        seen = set()
        for p in enumerate_partitions(n, "all"):
            flat = sorted(x for b in p.blocks for x in b)
            assert flat == list(range(1, n + 1))
            seen.add(p.blocks)
        nc = {p.blocks for p in enumerate_partitions(n, "non-crossing")}
        assert nc <= seen
        assert all(not is_crossing(Partition(n, b)) for b in nc)
        crossers = {p.blocks for p in enumerate_partitions(n, "all")} - nc
        assert all(is_crossing(Partition(n, b)) for b in crossers)


def test_enumeration_cap():
    assert issubclass(EnumerationCapError, ValueError)
    with pytest.raises(EnumerationCapError):
        enumerate_partitions(DEFAULT_CAPS["all"] + 1, "all")
    # an explicit cap overrides the default in either direction
    with pytest.raises(EnumerationCapError):
        enumerate_partitions(6, "all", cap=5)
    assert len(enumerate_partitions(6, "all", cap=6)) == BELL[6]


def test_fuse_crossings_known_case():
    # {13}{24} is the minimal crossing; fusing gives the one-block partition
    p = Partition(4, ((1, 3), (2, 4)))
    assert is_crossing(p)
    fused = fuse_crossings(p)
    assert fused.blocks == ((1, 2, 3, 4),)


def test_fuse_crossings_is_noncrossing_and_coarser():
    for p in enumerate_partitions(6, "all"):
        q = fuse_crossings(p)
        assert not is_crossing(q)
        # every original block sits inside one fused block
        for b in p.blocks:
            assert any(set(b) <= set(c) for c in q.blocks)
        if not is_crossing(p):
            assert q.blocks == p.blocks


def test_to_permutation_blocks_become_cycles():
    p = Partition(5, ((1, 3), (2,), (4, 5)))
    sigma = to_permutation(p)
    assert sorted(tuple(sorted(c)) for c in sigma.cycles()) == [(1, 3), (2,), (4, 5)]


def test_noncrossing_iff_geodesic():
    # the permutation bridge: a pairing is non-crossing exactly when its
    # involution sits on a geodesic from the identity to the full cycle
    gamma = Permutation.full_cycle(6)
    checked = 0
    for p in enumerate_partitions(6, "all"):
        if max(p.block_sizes()) > 2:
            continue  # to_permutation only maps (partial) pairings
        sigma = to_permutation(p)
        assert is_geodesic(sigma, sigma, gamma) == (not is_crossing(p))
        checked += 1
    assert checked > len(enumerate_partitions(6, "pairings"))


@given(st.permutations(list(range(1, 7))))
def test_permutation_stats_sum(images):
    sigma = Permutation(tuple(images))
    cycles, dist = permutation_stats(sigma)
    assert cycles + dist == 6
    assert dist == sigma.cayley_distance


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_group_axioms(im_a, im_b):
    a, b = Permutation(tuple(im_a)), Permutation(tuple(im_b))
    ident = Permutation.identity(5)
    assert a * a.inverse() == ident
    assert (a * b).inverse() == b.inverse() * a.inverse()
    # Cayley distance is a metric under right translation
    assert (a * b).cayley_distance <= a.cayley_distance + b.cayley_distance


def test_permutation_as_a_key():
    a = Permutation((2, 1, 3))
    same = Permutation.transposition(3, 1, 2)
    assert a == same and a is not same and a != Permutation.identity(3)
    assert {a: "swap"}[same] == "swap"
    assert {a, same, Permutation.identity(3)} == {same, Permutation.identity(3)}
    assert repr(a) == "Permutation(images=(2, 1, 3))"


def test_composition_order():
    # self o other: other applies first
    a = Permutation.transposition(3, 1, 2)
    b = Permutation.transposition(3, 2, 3)
    assert (a * b)(3) == a(b(3)) == a(2) == 1


def test_full_cycle_and_distance():
    g = Permutation.full_cycle(7)
    assert g.cycle_count == 1
    assert g.cayley_distance == 6
    assert all(g(k) == k + 1 for k in range(1, 7)) and g(7) == 1


def test_geodesic_small_cases():
    g = Permutation.full_cycle(2)
    ident = Permutation.identity(2)
    assert is_geodesic(ident, ident, g)
    assert is_geodesic(ident, g, g)
    assert is_geodesic(g, g, g)
    assert not is_geodesic(g, ident, g)  # 1 + 1 + 1 != 1


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.from_blocks(3, ((1, 2),))  # 3 missing
    with pytest.raises(ValueError):
        Partition.from_blocks(3, ((1, 2), (2, 3)))  # overlap
    # from_blocks canonicalizes unordered input
    assert Partition.from_blocks(4, [[4, 2], [3, 1]]).blocks == ((1, 3), (2, 4))



@pytest.mark.parametrize("n", range(1, 11))
def test_non_crossing_generation_matches_filter(n):
    # oracle: every set partition in restricted-growth order, crossings dropped
    every = enumerate_partitions(n, "all")
    assert enumerate_partitions(n, "non-crossing") == [p for p in every if not is_crossing(p)]


def test_enumeration_doctests():
    result = doctest.testmod(enumeration)
    assert result.attempted and not result.failed
