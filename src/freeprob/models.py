"""Exact algebraic models of free random variables.

Two concrete oracles, neither truncated: the group algebra of a free group
F_d with the coefficient-of-identity expectation (reduced words with exact
rational coefficients), and creation/annihilation operators on the full Fock
space with the vacuum expectation.  On the full Fock space the one relation
a_v a*_w = delta_vw 1 brings every product into normal order, creators left
of annihilators (Voiculescu, Dykema & Nica, *Free Random Variables*, CRM
1992), and the vacuum expectation of a normal-ordered polynomial is its
coefficient of the empty monomial.  Both models realize freeness exactly
rather than asymptotically, so they serve as ground truth for the
combinatorial and analytic routes.  A generic `freeness_certificate` checks
Voiculescu's alternating-centered-products condition against any moment
functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cumulants import MomentFunctional

__all__ = [
    "GroupAlgebraElement",
    "FockOperator",
    "group_algebra_expectation",
    "fock_vacuum_expectation",
    "freeness_certificate",
]


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


def _accumulate(terms: dict, key, c) -> None:
    """terms[key] += c, dropping the key when the sum is zero."""
    acc = terms.get(key, 0) + c
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Element of the rational group algebra of F_d as a reduced-word table.

    Generators are signed integers: +i is the i-th generator, -i its
    inverse; a word is a tuple with no letter adjacent to its own negation.
    """

    d: int
    terms: dict

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need at least one generator, got d={self.d}")
        for w in self.terms:
            for k, g in enumerate(w):
                if g == 0 or abs(g) > self.d:
                    raise ValueError(f"letter {g} outside +-1..+-{self.d}")
                if k and w[k - 1] == -g:
                    raise ValueError(f"word {w!r} is not reduced")

    def _like(self, terms: dict) -> "GroupAlgebraElement":
        """An element over the same generators from words that are reduced by
        construction, without the letter checks of `__post_init__`."""
        out = object.__new__(GroupAlgebraElement)
        object.__setattr__(out, "d", self.d)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def identity(cls, d: int) -> "GroupAlgebraElement":
        return cls(d, {(): Fraction(1)})

    @classmethod
    def generator(cls, d: int, g: int) -> "GroupAlgebraElement":
        """The generator +i or its inverse -i as an algebra element."""
        if g == 0 or abs(g) > d:
            raise ValueError(f"generator index {g} outside +-1..+-{d}")
        return cls(d, {(g,): Fraction(1)})

    @classmethod
    def generator_sum(cls, d: int) -> "GroupAlgebraElement":
        """sum of all generators and their inverses (the walk step element)."""
        terms = {(g,): Fraction(1) for i in range(1, d + 1) for g in (i, -i)}
        return cls(d, terms)

    def coefficient(self, word: tuple) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.d != other.d:
            raise ValueError("generator counts differ")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(terms, w, c)
        return self._like(terms)

    def __neg__(self) -> "GroupAlgebraElement":
        return self._like({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-other)

    def scale(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        if c == 0:
            return self._like({})
        return self._like({w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return self.scale(other)
        if self.d != other.d:
            raise ValueError("generator counts differ")
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _accumulate(terms, _reduce_join(w1, w2), c1 * c2)
        return self._like(terms)

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
        return self._like({_word_inverse(w): c for w, c in self.terms.items()})

    def identity_coefficient_of_product(self, other: "GroupAlgebraElement") -> Fraction:
        """Coefficient of the empty word in self*other, without expanding it.

        tau[ab] = sum_w a(w) b(w^{-1}); this stays cheap when the full
        product support would be enormous (e.g. high powers of the step
        element).
        """
        if self.d != other.d:
            raise ValueError("generator counts differ")
        small, big = self.terms, other.terms
        if len(big) < len(small):
            small, big = big, small
        acc = Fraction(0)
        for w, c in small.items():
            acc += c * big.get(_word_inverse(w), 0)
        return acc


def group_algebra_expectation(d: int, element: GroupAlgebraElement) -> Fraction:
    """Coefficient of the identity word: the trace tau on the group algebra."""
    if element.d != d:
        raise ValueError(f"element over F_{element.d}, expected F_{d}")
    return element.coefficient(())


@dataclass(frozen=True)
class FockOperator:
    """A polynomial in the creation and annihilation operators of the full
    Fock space of V = R^dim_v, in normal order.

    ``terms`` maps a monomial (r, l) = a*_{r_1}...a*_{r_p} a_{l_1}...a_{l_q}
    (r and l tuples of basis indices) to its real coefficient; no stored
    coefficient is zero.  a*_v prepends v to a simple tensor and a_v pairs
    off its leading factor, so a_v a*_w = delta_vw 1, and that relation
    brings any product back into normal order.
    """

    dim_v: int
    terms: dict

    @classmethod
    def identity(cls, dim_v: int) -> "FockOperator":
        return cls(dim_v, {((), ()): 1})

    @classmethod
    def raising(cls, v: int, dim_v: int) -> "FockOperator":
        if not 0 <= v < dim_v:
            raise ValueError(f"vector index {v} outside 0..{dim_v - 1}")
        return cls(dim_v, {((v,), ()): 1})

    @classmethod
    def lowering(cls, v: int, dim_v: int) -> "FockOperator":
        return cls.raising(v, dim_v).adjoint()

    def adjoint(self) -> "FockOperator":
        return FockOperator(
            self.dim_v, {(l[::-1], r[::-1]): c for (r, l), c in self.terms.items()}
        )

    def _check(self, other: "FockOperator"):
        if self.dim_v != other.dim_v:
            raise ValueError("operators act on Fock spaces of different dimension")

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(terms, m, c)
        return FockOperator(self.dim_v, terms)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        """The normal-ordered product: in a*_{r1} a_{l1} a*_{r2} a_{l2} the
        inner annihilators l1, innermost first, pair off the inner creators r2
        by a_v a*_w = delta_vw 1, leaving one monomial or zero."""
        self._check(other)
        terms: dict = {}
        for (r1, l1), c1 in self.terms.items():
            for (r2, l2), c2 in other.terms.items():
                k = min(len(l1), len(r2))
                if l1[len(l1) - k:][::-1] != r2[:k]:
                    continue
                monomial = (r1 + r2[k:], l1[:len(l1) - k] + l2)
                _accumulate(terms, monomial, c1 * c2)
        return FockOperator(self.dim_v, terms)

    def vacuum_expectation(self) -> float:
        return float(self.terms.get(((), ()), 0))


def fock_vacuum_expectation(word, dim_v: int) -> float:
    """<W v_vac, v_vac> for W the product of (kind, index) factors in word.

    kind is "raise" or "lower"; factors apply right to left, so word[-1]
    hits the vacuum first.
    """
    letters = {"raise": FockOperator.raising, "lower": FockOperator.lowering}
    acc = FockOperator.identity(dim_v)
    for kind, v in word:
        if kind not in letters:
            raise ValueError(f"unknown factor kind {kind!r}")
        acc = acc @ letters[kind](v, dim_v)
    return acc.vacuum_expectation()


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
