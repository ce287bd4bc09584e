"""Group-algebra and Fock-space models, and the freeness certificate."""

import itertools
import math
from fractions import Fraction

import pytest

from enumeration import enumerate_partitions
from freeprob.cumulants import MomentFunctional
from freeprob.models import (
    FockOperator,
    GroupAlgebraElement,
    fock_vacuum_expectation,
    freeness_certificate,
    group_algebra_expectation,
)
from freeprob.walks import kesten_loops

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def generator_sum_power_trace(d, n):
    s = GroupAlgebraElement.generator_sum(d)
    acc = GroupAlgebraElement.identity(d)
    for _ in range(n):
        acc = acc * s
    return group_algebra_expectation(d, acc)


def test_generator_sum_moments_frozen():
    assert generator_sum_power_trace(2, 2) == 4
    assert generator_sum_power_trace(2, 4) == 28
    a = GroupAlgebraElement.generator(1, 1)
    el = a + a.star()
    assert group_algebra_expectation(1, el * el) == 2


def test_group_algebra_matches_loop_counts():
    for d, n_max in ((1, 10), (2, 10), (3, 6)):
        lam = kesten_loops(d, n_max).values
        for n in range(n_max + 1):
            assert generator_sum_power_trace(d, n) == lam[n]


def test_group_algebra_power_matches_repeated_product():
    # s^8 on three generators has ~490k words, seconds of Fraction work
    for d, n_max in ((1, 8), (2, 8), (3, 6)):
        s = GroupAlgebraElement.generator_sum(d)
        lam = kesten_loops(d, n_max).values
        product = GroupAlgebraElement.identity(d)
        for n in range(n_max + 1):
            if n:
                product = product * s
            power = s ** n
            assert power.terms == product.terms
            assert power.coefficient(()) == lam[n]
    assert GroupAlgebraElement.generator_sum(2) ** 0 == GroupAlgebraElement.identity(2)
    with pytest.raises(ValueError, match="negative"):
        GroupAlgebraElement.generator_sum(2) ** -1


def test_pair_trick_matches_direct_power():
    # tau(s^8) via <s^4, s^4> avoids building the degree-8 element
    s = GroupAlgebraElement.generator_sum(2)
    s4 = s * s * s * s
    paired = s4.identity_coefficient_of_product(s4)
    assert paired == generator_sum_power_trace(2, 8) == 2092


def test_group_algebra_word_reduction():
    s = GroupAlgebraElement.generator_sum(2)
    sq = s * s
    assert sq.coefficient(()) == 4
    assert sq.coefficient((1, -1)) == 0  # cancelling letters never survive
    assert sq.coefficient((1, 2)) == 1
    a = GroupAlgebraElement.generator(2, 1)
    b = GroupAlgebraElement.generator(2, 2)
    assert (a * b).star().coefficient((-2, -1)) == 1  # (ab)* = b* a*
    assert (a.star() * a).coefficient(()) == 1
    # seven length-3 walks from the identity end at the generator 1
    assert (s * s * s).coefficient((1,)) == 7


def test_group_algebra_scale_and_add():
    s = GroupAlgebraElement.generator_sum(2)
    doubled = s.scale(Fraction(2))
    assert group_algebra_expectation(2, doubled * doubled) == 16
    assert (s + s).coefficient((1,)) == 2


def test_group_algebra_operators_build_reduced_words():
    # the operators skip the constructor's letter checks; their words pass them
    a = GroupAlgebraElement.generator(2, 1)
    s = GroupAlgebraElement.generator_sum(2)
    for el in (s * s * a, s + a, -s, s.scale(3), (s * a).star(), s - s):
        assert GroupAlgebraElement(el.d, dict(el.terms)) == el
    with pytest.raises(ValueError, match="not reduced"):
        GroupAlgebraElement(2, {(1, -1): Fraction(1)})
    with pytest.raises(ValueError, match="outside"):
        GroupAlgebraElement(2, {(3,): Fraction(1)})


def test_generator_index_validation():
    with pytest.raises(ValueError):
        GroupAlgebraElement.generator(2, 0)
    with pytest.raises(ValueError):
        GroupAlgebraElement.generator(2, 3)
    GroupAlgebraElement.generator(2, -2)  # inverse generators are fine


def test_group_algebra_rank_mismatch():
    el = GroupAlgebraElement.generator_sum(2)
    with pytest.raises(ValueError):
        group_algebra_expectation(3, el)


def test_fock_semicircle_moments():
    L = FockOperator.lowering(0, 1)
    R = FockOperator.raising(0, 1)
    s = L + R
    acc = s
    vals = []
    for n in range(2, 13):
        acc = acc @ s
        vals.append(acc.vacuum_expectation())
    # even moments are the Catalan numbers, odd moments vanish
    assert vals[0::2] == [float(CATALAN[k]) for k in range(1, 7)]
    assert vals[1::2] == [0.0] * 5
    # nothing is truncated: the 40th moment is still Cat(20)
    for _ in range(13, 41):
        acc = acc @ s
    assert acc.vacuum_expectation() == math.comb(40, 20) // 21


def test_fock_vacuum_word_route_counts_dyck_words():
    for k in (1, 2, 3, 4):
        total = 0
        for kinds in itertools.product(("raise", "lower"), repeat=2 * k):
            total += fock_vacuum_expectation([(kind, 0) for kind in kinds], 1)
        assert total == CATALAN[k]


def matched_word(word):
    """1 when, read right to left, every lower meets the latest unmatched
    raise with its own index and no raise is left unmatched, else 0."""
    open_raises = []
    for kind, v in reversed(word):
        if kind == "raise":
            open_raises.append(v)
        elif not open_raises or open_raises.pop() != v:
            return 0
    return 0 if open_raises else 1


def test_fock_words_match_the_pairing_oracle():
    letters = [(kind, v) for kind in ("raise", "lower") for v in (0, 1)]
    for n in range(9):
        for word in itertools.product(letters, repeat=n):
            assert fock_vacuum_expectation(word, 2) == matched_word(word), word


def test_fock_word_validation():
    with pytest.raises(ValueError):
        fock_vacuum_expectation([("raise", 0), ("swap", 0)], 1)
    with pytest.raises(ValueError):
        fock_vacuum_expectation([("lower", 2)], 2)


def test_two_component_alternating_word_vanishes():
    x = FockOperator.lowering(0, 2) + FockOperator.raising(0, 2)
    y = FockOperator.lowering(1, 2) + FockOperator.raising(1, 2)
    assert (x @ y @ x @ y).vacuum_expectation() == 0.0
    assert (x @ x @ y @ y).vacuum_expectation() == 1.0
    assert (x @ y @ y @ x).vacuum_expectation() == 1.0


def test_raising_is_adjoint_of_lowering():
    L = FockOperator.lowering(0, 2)
    R = FockOperator.raising(0, 2)
    assert R.adjoint() == L
    assert L.adjoint() == R


def test_lowering_after_raising_is_the_inner_product():
    # L_v R_w = <w, v> * identity on the whole Fock space
    for v, w in itertools.product(range(2), repeat=2):
        prod = FockOperator.lowering(v, 2) @ FockOperator.raising(w, 2)
        assert prod == (FockOperator.identity(2) if v == w else FockOperator(2, {}))


def mixed_vacuum(colours):
    ops = [
        FockOperator.lowering(c, 2) + FockOperator.raising(c, 2) for c in colours
    ]
    acc = ops[0]
    for op in ops[1:]:
        acc = acc @ op
    return acc.vacuum_expectation()


def count_colour_respecting_nc_pairings(colours):
    n = len(colours)
    if n % 2:
        return 0
    total = 0
    for p in enumerate_partitions(n, "nc-pairings"):
        if all(colours[a - 1] == colours[b - 1] for a, b in p.blocks):
            total += 1
    return total


@pytest.mark.parametrize(
    "colours",
    [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (0, 0, 0, 0, 1, 1),
        (0, 1, 1, 0, 1, 1),
        (0, 1, 0, 1, 1, 0),
        (0, 0, 1, 1, 0, 0, 1, 1),
        (0, 1, 1, 0, 0, 1, 1, 0),
    ],
)
def test_mixed_fock_words_count_coloured_pairings(colours):
    assert mixed_vacuum(colours) == count_colour_respecting_nc_pairings(colours)


def fock_pair_functional(degree):
    """Joint moments of two free standard semicircular elements."""
    x = FockOperator.lowering(0, 2) + FockOperator.raising(0, 2)
    y = FockOperator.lowering(1, 2) + FockOperator.raising(1, 2)
    ops = {"x": x, "y": y}
    table = {}
    for n in range(1, degree + 1):
        for word in itertools.product("xy", repeat=n):
            acc = ops[word[0]]
            for letter in word[1:]:
                acc = acc @ ops[letter]
            val = acc.vacuum_expectation()
            assert abs(val - round(val)) < 1e-9
            table[word] = Fraction(round(val))
    return MomentFunctional(("x", "y"), table, degree)


def test_certificate_accepts_free_pair():
    f = fock_pair_functional(6)
    assert freeness_certificate(f, ("x", "y"), 6) == []


def test_certificate_flags_classical_independence():
    bern = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    f = MomentFunctional.from_classical_independent({"x": bern, "y": bern}, 4)
    violations = freeness_certificate(f, ("x", "y"), 4)
    assert len(violations) == 2
    words = {v[0] for v in violations}
    assert words == {
        (("x", 1), ("y", 1), ("x", 1), ("y", 1)),
        (("y", 1), ("x", 1), ("y", 1), ("x", 1)),
    }
    assert all(v[1] == 1 for v in violations)


def test_certificate_accepts_constants():
    # y = 2 * identity is free from anything
    bern = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    full_x = [Fraction(1)] + bern
    table = {}
    for n in range(1, 5):
        for word in itertools.product("xy", repeat=n):
            k = word.count("x")
            table[word] = full_x[k] * Fraction(2) ** (n - k)
    f = MomentFunctional(("x", "y"), table, 4)
    assert freeness_certificate(f, ("x", "y"), 4) == []


def test_certificate_degree_guard():
    bern = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    f = MomentFunctional.from_classical_independent({"x": bern, "y": bern}, 4)
    with pytest.raises(ValueError):
        freeness_certificate(f, ("x", "y"), 6)
