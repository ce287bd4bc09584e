"""Exact algebraic models of free random variables.

Two concrete oracles: the group algebra of a free group F_d with the
coefficient-of-identity expectation (reduced words with exact rational
coefficients), and creation/annihilation operators on a truncated full Fock
space with the vacuum expectation.  Both realize freeness exactly rather
than asymptotically, so they serve as ground truth for the combinatorial
and analytic routes.  A generic `freeness_certificate` checks Voiculescu's
alternating-centered-products condition against any moment functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .cumulants import MomentFunctional

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "TruncationError",
    "GroupAlgebraElement",
    "FockOperator",
    "group_algebra_expectation",
    "fock_vacuum_expectation",
    "freeness_certificate",
]


class TruncationError(ValueError):
    """A truncation cap cannot certify the requested computation."""


def _reduce_join(w1: tuple, w2: tuple) -> tuple:
    """Concatenate two reduced words, cancelling at the junction only."""
    i = len(w1)
    j = 0
    while i > 0 and j < len(w2) and w1[i - 1] == -w2[j]:
        i -= 1
        j += 1
    return w1[:i] + w2[j:]


def _word_inverse(w: tuple) -> tuple:
    return tuple(-g for g in reversed(w))


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Element of the rational group algebra of F_d as a reduced-word table.

    Generators are signed integers: +i is the i-th generator, -i its
    inverse; a word is a tuple with no letter adjacent to its own negation.
    `total_degree` tracks the largest unreduced length this element could
    have contributed words at; with `length_cap` finite, words longer than
    the cap are dropped during multiplication, and any expectation is
    refused unless cap >= total_degree (in which case nothing was ever
    droppable, since reduced length never exceeds total degree).
    """

    d: int
    terms: dict
    length_cap: int | None = None
    total_degree: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need at least one generator, got d={self.d}")
        for w in self.terms:
            for k, g in enumerate(w):
                if g == 0 or abs(g) > self.d:
                    raise ValueError(f"letter {g} outside +-1..+-{self.d}")
                if k and w[k - 1] == -g:
                    raise ValueError(f"word {w!r} is not reduced")

    @classmethod
    def identity(cls, d: int) -> "GroupAlgebraElement":
        return cls(d, {(): Fraction(1)}, None, 0)

    @classmethod
    def generator(cls, d: int, g: int) -> "GroupAlgebraElement":
        """The generator +i or its inverse -i as an algebra element."""
        if g == 0 or abs(g) > d:
            raise ValueError(f"generator index {g} outside +-1..+-{d}")
        return cls(d, {(g,): Fraction(1)}, None, 1)

    @classmethod
    def generator_sum(cls, d: int) -> "GroupAlgebraElement":
        """sum of all generators and their inverses (the walk step element)."""
        terms = {(g,): Fraction(1) for i in range(1, d + 1) for g in (i, -i)}
        return cls(d, terms, None, 1)

    def _merge_cap(self, other: "GroupAlgebraElement") -> int | None:
        caps = [c for c in (self.length_cap, other.length_cap) if c is not None]
        return min(caps) if caps else None

    def coefficient(self, word: tuple) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.d != other.d:
            raise ValueError("generator counts differ")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w, 0) + c
            if acc:
                terms[w] = acc
            else:
                terms.pop(w, None)
        return GroupAlgebraElement(
            self.d, terms, self._merge_cap(other),
            max(self.total_degree, other.total_degree),
        )

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            self.d, {w: -c for w, c in self.terms.items()},
            self.length_cap, self.total_degree,
        )

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-other)

    def scale(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        if c == 0:
            return GroupAlgebraElement(self.d, {}, self.length_cap, self.total_degree)
        return GroupAlgebraElement(
            self.d, {w: c * v for w, v in self.terms.items()},
            self.length_cap, self.total_degree,
        )

    def __mul__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return self.scale(other)
        if self.d != other.d:
            raise ValueError("generator counts differ")
        cap = self._merge_cap(other)
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = _reduce_join(w1, w2)
                if cap is not None and len(w) > cap:
                    continue
                acc = terms.get(w, 0) + c1 * c2
                if acc:
                    terms[w] = acc
                else:
                    terms.pop(w, None)
        return GroupAlgebraElement(
            self.d, terms, cap, self.total_degree + other.total_degree
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GroupAlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        acc = GroupAlgebraElement.identity(self.d)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def star(self) -> "GroupAlgebraElement":
        """The *-involution: words inverted, coefficients conjugated."""
        return GroupAlgebraElement(
            self.d, {_word_inverse(w): c for w, c in self.terms.items()},
            self.length_cap, self.total_degree,
        )

    def identity_coefficient_of_product(self, other: "GroupAlgebraElement") -> Fraction:
        """Coefficient of the empty word in self*other, without expanding it.

        tau[ab] = sum_w a(w) b(w^{-1}); this stays cheap when the full
        product support would be enormous (e.g. high powers of the step
        element).  Same cap certification as the expectation itself.
        """
        if self.d != other.d:
            raise ValueError("generator counts differ")
        total = self.total_degree + other.total_degree
        cap = self._merge_cap(other)
        if cap is not None and cap < total:
            raise TruncationError(
                f"cap {cap} cannot certify a degree-{total} expectation"
            )
        small, big = self.terms, other.terms
        if len(big) < len(small):
            small, big = big, small
        acc = Fraction(0)
        for w, c in small.items():
            acc += c * big.get(_word_inverse(w), 0)
        return acc


def group_algebra_expectation(d: int, element: GroupAlgebraElement) -> Fraction:
    """Coefficient of the identity word: the trace tau on the group algebra.

    Refuses elements whose truncation cap is smaller than their recorded
    total degree, since dropped words could then have re-reduced into the
    identity in a later product (truncation is never silent).
    """
    if element.d != d:
        raise ValueError(f"element over F_{element.d}, expected F_{d}")
    cap = element.length_cap
    if cap is not None and cap < element.total_degree:
        raise TruncationError(
            f"cap {cap} cannot certify a degree-{element.total_degree} expectation"
        )
    return element.coefficient(())


def _fock_basis(dim_v: int, degree: int) -> list[tuple]:
    basis: list[tuple] = []
    for k in range(degree + 1):
        basis.extend(product(range(dim_v), repeat=k))
    return basis


@dataclass(frozen=True)
class FockOperator:
    """A linear operator on the Fock space of V truncated at degree D.

    The space is the direct sum of tensor powers V^{otimes 0..D} over an
    orthonormal basis of V = R^dim_v; simple tensors are basis index
    tuples.  Raising by v prepends v (degree D is annihilated by the
    truncation); lowering pairs off the leading factor and kills the
    vacuum.  Lowering is the adjoint of raising on the retained degrees.
    """

    dim_v: int
    truncation_degree: int
    matrix: sp.csr_matrix = field(repr=False)

    @staticmethod
    def _index(dim_v: int, degree: int) -> dict:
        return {t: i for i, t in enumerate(_fock_basis(dim_v, degree))}

    @classmethod
    def raising(cls, v: int, dim_v: int, degree: int) -> "FockOperator":
        import scipy.sparse as sp  # imported here to keep scipy out of the CLI's start-up

        if not 0 <= v < dim_v:
            raise ValueError(f"vector index {v} outside 0..{dim_v - 1}")
        idx = cls._index(dim_v, degree)
        rows, cols = [], []
        for t, i in idx.items():
            if len(t) < degree:
                rows.append(idx[(v,) + t])
                cols.append(i)
        n = len(idx)
        mat = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=np.float64
        )
        return cls(dim_v, degree, mat)

    @classmethod
    def lowering(cls, v: int, dim_v: int, degree: int) -> "FockOperator":
        return cls.raising(v, dim_v, degree).adjoint()

    def adjoint(self) -> "FockOperator":
        return FockOperator(
            self.dim_v, self.truncation_degree, self.matrix.conj().T.tocsr()
        )

    def _check(self, other: "FockOperator"):
        if (self.dim_v, self.truncation_degree) != (other.dim_v, other.truncation_degree):
            raise ValueError("operators live on different truncated Fock spaces")

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.dim_v, self.truncation_degree,
                            (self.matrix + other.matrix).tocsr())

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        return FockOperator(self.dim_v, self.truncation_degree,
                            (self.matrix @ other.matrix).tocsr())

    def vacuum_expectation(self) -> float:
        return float(self.matrix[0, 0])


def fock_vacuum_expectation(word, dim_v: int, truncation_degree: int) -> float:
    """<W v_vac, v_vac> for W the product of (kind, index) factors in word.

    kind is "raise" or "lower"; factors apply right to left, so word[-1]
    hits the vacuum first.  The truncation degree must cover the word
    length, which guarantees the cutoff cannot touch the result.
    """
    word = list(word)
    if truncation_degree < len(word):
        raise TruncationError(
            f"truncation degree {truncation_degree} < word length {len(word)}"
        )
    state = {(): 1.0}
    for kind, v in reversed(word):
        if not 0 <= v < dim_v:
            raise ValueError(f"vector index {v} outside 0..{dim_v - 1}")
        nxt: dict = {}
        for t, c in state.items():
            if kind == "raise":
                if len(t) < truncation_degree:
                    key = (v,) + t
                    nxt[key] = nxt.get(key, 0.0) + c
            elif kind == "lower":
                if t and t[0] == v:
                    key = t[1:]
                    nxt[key] = nxt.get(key, 0.0) + c
            else:
                raise ValueError(f"unknown factor kind {kind!r}")
        state = nxt
        if not state:
            return 0.0
    return float(state.get((), 0.0))


def _is_zero(value) -> bool:
    if isinstance(value, float):
        return abs(value) < 1e-9
    return value == 0


def freeness_certificate(f: MomentFunctional, vars, max_degree: int) -> list:
    """Violations of the alternating-centered-products freeness condition.

    For every alternating pattern (v1^i1 - tau[v1^i1])...(vk^ik - ...) with
    k >= 2 factors, letters strictly alternating between the two given
    variables, and total degree at most max_degree, evaluates tau of the
    product under f.  Returns [(pattern, value), ...] for the non-zero
    ones; an empty list certifies freeness up to that degree.  The product
    expands over kept-vs-centered subsets, so only f's plain word moments
    are consumed.
    """
    x, y = vars
    if f.degree_cap < max_degree:
        raise ValueError(
            f"functional degree cap {f.degree_cap} < requested degree {max_degree}"
        )
    means = {
        (v, i): f.moment((v,) * i)
        for v in (x, y)
        for i in range(1, max_degree + 1)
    }
    violations = []
    for k in range(2, max_degree + 1):
        for first in (x, y):
            letters = [(first, (y if first == x else x))[j % 2] for j in range(k)]
            for exps in _compositions(max_degree, k):
                value = 0
                for keep in product((True, False), repeat=k):
                    word: tuple = ()
                    coeff = 1
                    for v, i, kept in zip(letters, exps, keep):
                        if kept:
                            word = word + (v,) * i
                        else:
                            coeff = coeff * (-means[(v, i)])
                    value = value + coeff * f.moment(word)
                if not _is_zero(value):
                    violations.append((tuple(zip(letters, exps)), value))
    return violations


def _compositions(total_max: int, k: int):
    """All (i_1..i_k) with each i >= 1 and sum <= total_max."""
    def rec(remaining: int, slots: int):
        if slots == 0:
            yield ()
            return
        for head in range(1, remaining - slots + 2):
            for tail in rec(remaining - head, slots - 1):
                yield (head,) + tail

    yield from rec(total_max, k)
