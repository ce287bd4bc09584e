"""Permutation geometry on {1..n}: cycle counts, Cayley distance, geodesics.

This is the small amount of symmetric-group geometry that the random-matrix
calculations need (`rmt`'s Weingarten expansion).  Set partitions and their
enumeration are not here: the recursions of `series` and `cumulants` replaced
them, and they live on as the tests' small-n oracle.
"""

from __future__ import annotations

__all__ = [
    "Permutation",
    "permutation_stats",
    "is_geodesic",
]


class Permutation:
    """A permutation of {1..n} in word notation: images[k-1] = sigma(k).

    Equal images make equal, equally hashed permutations, so a permutation
    can key a dict.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of {{1..{n}}}: {images!r}")
        self.images = images

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self∘other, applied right to left."""
        if other.n != self.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, fixed points included, each starting at its minimum.

        >>> Permutation((3, 2, 1)).cycles()
        [(1, 3), (2,)]
        """
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            k = self(start)
            while k != start:
                cyc.append(k)
                seen[k - 1] = True
                k = self(k)
            out.append(tuple(cyc))
        return out

    @property
    def cycle_count(self) -> int:
        return len(self.cycles())

    @property
    def cayley_distance(self) -> int:
        """Minimal number of transpositions: n − (number of cycles)."""
        return self.n - self.cycle_count

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def full_cycle(cls, n: int) -> "Permutation":
        """The forward cycle (1 2 ... n)."""
        return cls(tuple(range(2, n + 1)) + (1,))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles, e.g. from_cycles(4, [(1, 2), (3, 4)])."""
        images = list(range(1, n + 1))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))


def permutation_stats(sigma: Permutation) -> tuple[int, int]:
    """(cycle count, Cayley distance) of sigma; the two always sum to n."""
    c = sigma.cycle_count
    return c, sigma.n - c


def is_geodesic(rho: Permutation, sigma: Permutation, gamma: Permutation) -> bool:
    """Whether id -> rho -> sigma -> gamma is a geodesic in the Cayley metric.

    True iff |rho| + |rho^{-1} sigma| + |sigma^{-1} gamma| = |gamma|, with |.|
    the transposition distance from the identity.
    """
    if not (rho.n == sigma.n == gamma.n):
        raise ValueError("size mismatch")
    total = (
        rho.cayley_distance
        + (rho.inverse() * sigma).cayley_distance
        + (sigma.inverse() * gamma).cayley_distance
    )
    return total == gamma.cayley_distance
