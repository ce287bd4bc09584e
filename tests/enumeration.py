"""Set partitions of {1..n} and their enumeration: the small-n oracle that
the tests check the library's recursions against.

Partitions are stored in a canonical form (blocks sorted ascending, block list
sorted by minimum element) so that equality is structural.  Four enumeration
families are supported: all partitions, non-crossing partitions, pairings
(perfect matchings), and non-crossing pairings.  `to_permutation` turns a
(partial) pairing into the involution of `freeprob.partitions.Permutation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from freeprob.partitions import Permutation

FAMILIES = ("all", "non-crossing", "pairings", "nc-pairings")

# Enumeration is rejected (not truncated) above these ground-set sizes; the
# counts explode (Bell numbers for "all") and callers must opt in explicitly.
DEFAULT_CAPS = {"all": 14, "non-crossing": 16, "pairings": 20, "nc-pairings": 24}


class EnumerationCapError(ValueError):
    """Requested enumeration exceeds the configured size cap."""


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n} in canonical form.

    ``blocks`` is a tuple of tuples: each block ascending, blocks ordered by
    their minimum element.  Use :meth:`from_blocks` to build one from unordered
    input; the raw constructor trusts its arguments.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        """Validate and canonicalize ``blocks`` as a partition of {1..n}.

        >>> Partition.from_blocks(4, [[3, 1], [4, 2]]).blocks
        ((1, 3), (2, 4))
        """
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [x for b in canon for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition {{1..{n}}}: {blocks!r}")
        return cls(n, canon)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


def _iter_all_partitions(n: int):
    """Yield all partitions of {1..n} as lists of lists, in restricted-growth order."""
    blocks: list[list[int]] = []

    def place(k: int):
        if k > n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(k)
            yield from place(k + 1)
            b.pop()
        blocks.append([k])
        yield from place(k + 1)
        blocks.pop()

    yield from place(1)


def _iter_nc_partitions(n: int):
    """Yield the non-crossing partitions of {1..n}, in restricted-growth order.

    Element k joins an open block, closing the blocks opened after it, or
    opens a new one.
    """
    blocks: list[list[int]] = []

    def place(k: int, open_: list):
        if k > n:
            yield tuple(map(tuple, blocks))
            return
        for depth, i in enumerate(open_):
            blocks[i].append(k)
            yield from place(k + 1, open_[: depth + 1])
            blocks[i].pop()
        blocks.append([k])
        yield from place(k + 1, open_ + [len(blocks) - 1])
        blocks.pop()

    yield from place(1, [])


def _iter_pairings(elements: tuple[int, ...]):
    """Yield all perfect matchings of ``elements`` as lists of pairs."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for i, partner in enumerate(rest):
        sub = rest[:i] + rest[i + 1 :]
        for tail in _iter_pairings(sub):
            yield [(first, partner)] + tail


def _iter_nc_pairings(elements: tuple[int, ...]):
    """Yield non-crossing perfect matchings of a sorted tuple of elements.

    The first element pairs with a partner at odd offset; the pairing splits
    the rest into an inside and an outside interval that match independently.
    """
    if not elements:
        yield []
        return
    first = elements[0]
    for j in range(1, len(elements), 2):
        inside, outside = elements[1:j], elements[j + 1 :]
        for left in _iter_nc_pairings(inside):
            for right in _iter_nc_pairings(outside):
                yield [(first, elements[j])] + left + right


def enumerate_partitions(n: int, family: str = "all", cap: int | None = None) -> list[Partition]:
    """Enumerate the partitions of {1..n} in the given family.

    family is one of "all", "non-crossing", "pairings", "nc-pairings".
    Pairing families return an empty list for odd n.  Sizes above the family
    cap raise :class:`EnumerationCapError`; pass ``cap`` to override.

    >>> [str(p) for p in enumerate_partitions(3, "non-crossing")]
    ['{1,2,3}', '{1,2}{3}', '{1,3}{2}', '{1}{2,3}', '{1}{2}{3}']
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < 1:
        raise ValueError("ground-set size must be >= 1")
    limit = DEFAULT_CAPS[family] if cap is None else cap
    if n > limit:
        raise EnumerationCapError(
            f"enumerate({n}, {family}) exceeds cap {limit}; pass cap= to opt in"
        )
    if family in ("pairings", "nc-pairings") and n % 2 == 1:
        return []
    if family == "non-crossing":
        return [Partition(n, blocks) for blocks in _iter_nc_partitions(n)]
    if family == "all":
        found = _iter_all_partitions(n)
    elif family == "pairings":
        found = _iter_pairings(tuple(range(1, n + 1)))
    else:
        found = _iter_nc_pairings(tuple(range(1, n + 1)))
    return [Partition.from_blocks(n, blocks) for blocks in found]


def _blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff blocks a, b interleave as ...a...b...a...b... somewhere."""
    merged = sorted([(x, 0) for x in a] + [(x, 1) for x in b])
    labels = []
    for _, tag in merged:
        if not labels or labels[-1] != tag:
            labels.append(tag)
    # Collapsed alternation of length >= 4 is exactly the a<b<c<d pattern.
    return len(labels) >= 4


def is_crossing(p: Partition) -> bool:
    """Whether some two blocks cross (four points a<b<c<d split a,c | b,d).

    >>> is_crossing(Partition.from_blocks(4, [[1, 3], [2, 4]]))
    True
    >>> is_crossing(Partition.from_blocks(4, [[1, 4], [2, 3]]))
    False
    """
    bl = p.blocks
    for i in range(len(bl)):
        for j in range(i + 1, len(bl)):
            if _blocks_cross(bl[i], bl[j]):
                return True
    return False


def fuse_crossings(p: Partition) -> Partition:
    """Finest non-crossing partition coarser than p.

    Repeatedly merges any pair of crossing blocks until none cross.  The result
    is non-crossing, contains every input block inside some output block, and
    the map is idempotent.
    """
    blocks = [set(b) for b in p.blocks]
    merged = True
    while merged:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                a = tuple(sorted(blocks[i]))
                b = tuple(sorted(blocks[j]))
                if _blocks_cross(a, b):
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    merged = True
                    break
            if merged:
                break
    return Partition.from_blocks(p.n, blocks)


def to_permutation(p: Partition) -> Permutation:
    """The involution whose 2-cycles are the pair blocks of p.

    Blocks of size one become fixed points; blocks of size three or more are
    rejected.
    """
    images = list(range(1, p.n + 1))
    for b in p.blocks:
        if len(b) > 2:
            raise ValueError(f"block {b} has size > 2; not a (partial) pairing")
        if len(b) == 2:
            a, c = b
            images[a - 1], images[c - 1] = c, a
    return Permutation(tuple(images))
