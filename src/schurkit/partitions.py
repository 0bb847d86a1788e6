"""Integer partitions and Young diagram geometry.

Diagrams use the French convention throughout: a cell is a lattice point
(c, r) with column c and row r, both 0-indexed, origin at the bottom left.
Row r of the diagram of ``lam`` consists of the points (0, r) .. (lam[r]-1, r),
so the longest row sits at the bottom.  Every point-valued API in this package
is (column, row) in that order; off-by-one and order bugs between the English
and French conventions are the classic failure mode here, which is why points
are a named type instead of bare tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import gt, index, lt
from typing import Iterable, Iterator, NamedTuple, Sequence


class InfiniteRegionError(ValueError):
    """The complement of the given ideal is not a finite diagram."""


class Point(NamedTuple):
    """Lattice point of the quadrant, as (column, row)."""

    c: int
    r: int

    def __add__(self, other: "Point") -> "Point":
        return Point(self.c + other.c, self.r + other.r)


class Partition:
    """A weakly decreasing sequence of positive integers.

    Immutable and hashable.  Trailing zeros are stripped on construction;
    non-monotone input is rejected rather than sorted (sorting the parts is
    what :meth:`union` does).  Indexing past the last part returns 0, which
    keeps part-wise arithmetic free of padding logic.
    """

    __slots__ = ("_parts", "_size")

    def __init__(self, parts: Iterable[int] = ()):
        ps = (*map(index, parts),)  # int-like parts, never a float or str; exact size
        while ps and ps[-1] == 0:  # clean input stops at the first test
            ps = ps[:-1]
        if ps and ps[-1] < 0:
            raise ValueError(f"parts must be positive, got {ps}")
        if any(map(lt, ps, ps[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {ps}")
        self._parts = ps
        self._size = sum(ps)

    @classmethod
    def _from_parts(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition of a weakly decreasing positive tuple, unchecked."""
        self = object.__new__(cls)
        self._parts, self._size = parts, sum(parts)
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, row: int) -> int:
        if row < 0:
            raise IndexError("row index must be non-negative")
        return self._parts[row] if row < len(self._parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def to_list(self) -> list[int]:
        """JSON form: plain list of parts, ``[]`` for the empty partition."""
        return list(self._parts)

    def conjugate(self) -> "Partition":
        """Transpose the diagram: column lengths become row lengths."""
        return Partition._from_parts(_conjugate(self._parts))

    def contains(self, inner: "Partition") -> bool:
        """Diagram containment: every row of ``inner`` fits inside this one."""
        return _contains(self._parts, inner._parts)

    def union(self, other: "Partition") -> "Partition":
        """Multiset merge of the parts, re-sorted."""
        return Partition(sorted(self._parts + other._parts, reverse=True))

    def __add__(self, other: "Partition") -> "Partition":
        """Part-wise sum."""
        n = max(len(self._parts), len(other))
        return Partition(self[i] + other[i] for i in range(n))

    def dominates(self, other: "Partition") -> bool:
        """Dominance order: every prefix sum of self is >= the same prefix sum
        of ``other``.  Only defined between partitions of equal size."""
        if self._size != other.size:
            raise ValueError(
                f"dominance compares partitions of equal size, got {self._size} and {other.size}"
            )
        return _dominates(self._parts, other._parts)


def _conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """The conjugate of a partition's parts: column c has as many cells as
    parts >= c, counted per value and summed from the right in a list, so the
    tuple is built at its exact size (from an iterator it is over-allocated)."""
    cols = [0] * (parts[0] if parts else 0)
    for p in parts:
        cols[p - 1] += 1
    for c in range(len(cols) - 2, -1, -1):
        cols[c] += cols[c + 1]
    return tuple(cols)


def _contains(outer: Sequence[int], inner: Sequence[int]) -> bool:
    """Diagram containment on part sequences: every row of inner fits in outer."""
    return len(inner) <= len(outer) and not any(map(gt, inner, outer))


def _dominates(upper: Sequence[int], lower: Sequence[int]) -> bool:
    """Dominance on part sequences of equal size: no prefix sum of upper is
    below lower's.  map stops at the shorter one; past it, its prefix sums
    stay at the common size, so any deficit there shows at its last row."""
    return not any(map(lt, accumulate(upper), accumulate(lower)))


def outer_corners(lam: Partition) -> frozenset[Point]:
    """Addable cells of the diagram.

    These are the points outside [lam] whose addition still yields a
    partition diagram.  There is always exactly one with c = 0 (on top) and
    one with r = 0 (end of the bottom row); for the empty partition both are
    (0, 0).  The result is the minimal generating antichain of the ideal
    complement of [lam].
    """
    pts = {Point(lam[0], 0), Point(0, len(lam))}
    for r in range(1, len(lam)):
        if lam[r - 1] > lam[r]:
            pts.add(Point(lam[r], r))
    return frozenset(pts)


def minkowski_sum(a: Iterable[Point], b: Iterable[Point]) -> frozenset[Point]:
    """{p + q : p in a, q in b} with coordinate-wise addition.

    Duplicates collapse but dominated points are kept: ideal_complement
    reads every generator, and a dominated one never changes its result.
    """
    aset, bset = set(a), set(b)
    if not aset or not bset:
        raise ValueError("minkowski_sum requires non-empty point sets")
    return frozenset(p + q for p in aset for q in bset)


def ideal_complement(generators: Iterable[Point]) -> Partition:
    """The partition whose diagram is the complement of the ideal generated
    by ``generators`` under coordinate-wise order.

    A point survives iff no generator is <= it coordinate-wise, so row r of
    the result has length min{q.c : q.r <= r}: the diagram is the
    intersection of the generators' fat-hook regions.  A generator above and
    right of another only adds a region that contains the other's, so no
    antichain reduction is needed.  The complement is finite only when the
    generators include a point on each axis (some c = 0 and some r = 0);
    otherwise InfiniteRegionError is raised.
    """
    pts = {Point(p[0], p[1]) for p in generators}
    if not any(p.c == 0 for p in pts) or not any(p.r == 0 for p in pts):
        raise InfiniteRegionError(
            "generators must include a point with c = 0 and a point with r = 0"
        )
    first_empty_row = min(p.r for p in pts if p.c == 0)
    return Partition(min(p.c for p in pts if p.r <= r) for r in range(first_empty_row))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order.  Each next one
    lowers the last part above 1 by one and refills the rest greedily."""
    if n < 0:
        return
    parts = [n] if n else []
    while True:
        yield Partition._from_parts(tuple(parts))
        ones = parts.count(1)  # parts fall, so the 1s are the tail
        del parts[len(parts) - ones:]
        if not parts:
            return
        cap = parts[-1] = parts[-1] - 1
        q, r = divmod(ones + 1, cap)
        parts += [cap] * q + ([r] if r else [])


@lru_cache(maxsize=64)
def all_partitions(n: int) -> tuple[Partition, ...]:
    """Cached tuple of all partitions of n, descending lexicographic."""
    return tuple(list(partitions_of(n)))
