"""Moment/cumulant transforms over the partition lattices, and mixed cumulants.

The classical transform sums over all set partitions, the free transform over
non-crossing partitions only.  Neither sum is enumerated for a single
variable: splitting off the block that contains 1 gives, on the classical
lattice,

    m_n = sum_{k=1}^{n} C(n-1, k-1) kappa_k m_{n-k}

(choose the other k-1 elements of that block), and on the free lattice the
functional equation L(z) = K(zL(z)) solved by :mod:`freeprob.series`: O(n^2)
and O(n^3) operations (n^2 entries of the powers of L, each an O(n) sum).
On both lattices exact rationals run in integers (``series._graded``).

Mixed cumulants of a word w split off the same first block B, over its
2^(n-1) choices: kappa(w|B) times tau[w without B] (classical), or times the
product of tau over the gaps of B, where the other non-crossing blocks sit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .series import _graded, free_cumulants_from_moments, free_moments_from_cumulants

__all__ = [
    "MomentFunctional",
    "moments_to_cumulants",
    "cumulants_to_moments",
    "mixed_cumulant",
    "classical_convolve_moments",
]

LATTICES = ("classical", "free")


def _check_lattice(lattice: str):
    if lattice not in LATTICES:
        raise ValueError(f"lattice must be one of {LATTICES}, got {lattice!r}")


def _exact(values) -> list:
    return [Fraction(x) if isinstance(x, int) else x for x in values]


def moments_to_cumulants(moments, lattice: str = "classical") -> list:
    """Cumulants c_1..c_N (classical) or kappa_1..kappa_N (free) from moments.

    >>> moments_to_cumulants([0, 1, 0, 3, 0, 15], "classical")
    [Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)]
    """
    _check_lattice(lattice)
    moments = _exact(moments)
    if lattice == "free":
        return free_cumulants_from_moments(moments)
    moments, unscale = _graded(moments)
    m = [1] + moments
    kappa: list = []
    for n in range(1, len(m)):
        proper = sum(comb(n - 1, k - 1) * kappa[k - 1] * m[n - k] for k in range(1, n))
        kappa.append(m[n] - proper)
    return [unscale(n, v) for n, v in enumerate(kappa, 1)]


def cumulants_to_moments(cumulants, lattice: str = "classical") -> list:
    """Moments from cumulants: m_n = sum over lattice partitions of prod kappa_|B|."""
    _check_lattice(lattice)
    cumulants = _exact(cumulants)
    if lattice == "free":
        out = free_moments_from_cumulants(cumulants)
    else:
        kappa, unscale = _graded(cumulants)
        m: list = [1]
        for n in range(1, len(kappa) + 1):
            m.append(sum(comb(n - 1, k - 1) * kappa[k - 1] * m[n - k] for k in range(1, n + 1)))
        out = [unscale(n, v) for n, v in enumerate(m[1:], 1)]
    return [total if total != 0 else Fraction(0) for total in out]


class MomentFunctional:
    """Mixed moments tau[X_{w1} ... X_{wn}] indexed by words over an alphabet.

    ``table`` maps tuples of variable identifiers to values and must be total
    up to ``degree_cap``; the empty word maps to 1 (tau is unital).  Words are
    stored literally: no commutativity is assumed, so ('X','Y','X','Y') and
    ('X','X','Y','Y') are distinct entries.
    """

    def __init__(self, alphabet, table: dict, degree_cap: int):
        self.alphabet = tuple(alphabet)
        self.table = {tuple(k): v for k, v in table.items()}
        self.table[()] = Fraction(1)
        self.degree_cap = degree_cap
        self._kappa_cache: dict = {}

    def moment(self, word) -> Fraction:
        word = tuple(word)
        if len(word) > self.degree_cap:
            raise ValueError(
                f"word {word!r} exceeds the functional's degree cap {self.degree_cap}"
            )
        return self.table[word]

    @classmethod
    def from_classical_independent(cls, marginals: dict, degree_cap: int) -> "MomentFunctional":
        """Functional of commuting, classically independent variables.

        ``marginals[v]`` lists the raw moments m_1..m_k of variable v; a word's
        moment factorizes as the product of per-variable moments by count.
        """
        from itertools import product

        names = tuple(marginals)
        table = {}
        for deg in range(1, degree_cap + 1):
            for word in product(names, repeat=deg):
                val = Fraction(1)
                for v in names:
                    c = word.count(v)
                    if c:
                        val *= Fraction(marginals[v][c - 1])
                table[word] = val
        return cls(names, table, degree_cap)


def mixed_cumulant(f: MomentFunctional, word, lattice: str = "free"):
    """The multilinear cumulant of the word under f, over the chosen lattice.

    Defined by the recursive extension of the moment-cumulant formula:
    tau[word] = sum over lattice partitions pi of prod over blocks B of
    kappa(word restricted to B), solved for the one-block term.
    """
    _check_lattice(lattice)
    word = tuple(word)
    key = (word, lattice)
    cached = f._kappa_cache.get(key)
    if cached is not None:
        return cached
    n = len(word)
    if n == 0:
        raise ValueError("cumulant of the empty word is undefined")
    proper = 0
    for size in range(n - 1):
        for rest in combinations(range(1, n), size):
            block = (0,) + rest
            kappa = mixed_cumulant(f, tuple(word[i] for i in block), lattice)
            if kappa == 0:
                continue
            if lattice == "classical":
                inside = set(block)
                proper += kappa * f.moment(w for i, w in enumerate(word) if i not in inside)
            else:
                for lo, hi in zip(block, rest + (n,)):
                    kappa *= f.moment(word[lo + 1 : hi])
                proper += kappa
    val = f.moment(word) - proper
    f._kappa_cache[key] = val
    return val


def classical_convolve_moments(mx, my) -> list:
    """Moments of the sum of classically independent variables.

    Converts both inputs to classical cumulants, adds, and converts back;
    this agrees term by term with the binomial formula
    m_n = sum_k C(n,k) m_k(X) m_{n-k}(Y).
    """
    if len(mx) != len(my):
        raise ValueError("moment sequences must have equal length")
    cx = moments_to_cumulants(mx, "classical")
    cy = moments_to_cumulants(my, "classical")
    return cumulants_to_moments([a + b for a, b in zip(cx, cy)], "classical")

