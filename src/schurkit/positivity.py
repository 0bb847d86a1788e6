"""Necessary positivity conditions, packaged as cheap pruning predicates.

Each check here is a necessary condition for a coefficient to be nonzero, so
filtering candidates through them before running the exact (and expensive)
coefficient computation is always sound.  None of them is sufficient: a
candidate that passes may still have coefficient zero.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add
from typing import NamedTuple, Sequence

from .partitions import Partition, Point, _conjugate, _contains, minkowski_sum, outer_corners
from .quotients import _partition_from_beta, _quotient_walk


class BoundPair(NamedTuple):
    """Row bound, column bound, and their intersection (row-wise minimum),
    which is the largest partition contained in both."""

    xi1: Partition
    xi2: Partition
    intersection: Partition

    def to_json_obj(self) -> dict:
        return {
            "xi1": self.xi1.to_list(),
            "xi2": self.xi2.to_list(),
            "intersection": self.intersection.to_list(),
        }


def corner_sum(mus: Sequence[Partition]) -> frozenset[Point]:
    """Minkowski sum of the factors' outer-corner sets."""
    if not mus:
        raise ValueError("corner_sum requires at least one factor")
    total = outer_corners(mus[0])
    for mu in mus[1:]:
        total = minkowski_sum(total, outer_corners(mu))
    return total


def lr_bound(mus: Sequence[Partition]) -> Partition:
    """Containing shape for the support of a product of Schur functions.

    The corner sum of the factors generates an ideal whose complement
    contains the diagram of every partition in supp(s_{mu_0} * s_{mu_1} *
    ...).  Since parts only fall, its row r is the min-plus convolution
    min over i + j = r of mu_i + nu_j (zero-padded), folded over the factors.
    These rows fall, and no i + j = r meets both paddings, so they are a partition.
    """
    if not mus:
        raise ValueError("lr_bound requires at least one factor")
    rows = mus[0].parts
    for mu in mus[1:]:
        a, b = rows + (0,) * len(mu), mu.parts + (0,) * len(rows)
        rows = tuple([min(map(add, a[: r + 1], b[r::-1])) for r in range(len(a))])
    return Partition._from_parts(rows)


def sxp_lower_check(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Necessary for <s_mu, p_n o s_lam> != 0 for any n: [lam] must be
    contained in [mu].  Each argument is a Partition or a part tuple."""
    return _contains(mu, lam)


def size_row_bound(total: int) -> Partition:
    """Row caps forced by size alone: a partition of ``total`` has r-th row
    of length at most total // r."""
    return Partition._from_parts(_row_caps(total, ()))


def _row_caps(total: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """A partition of total containing parts has row r <= (total - |parts below r|) / r.
    With total >= |parts| the caps fall weakly, so they are a partition's parts."""
    caps = []
    tail = sum(parts)  # |(parts_{r+1}, parts_{r+2}, ...)| with r rows removed
    for r, part in enumerate(chain(parts, repeat(0)), 1):
        tail -= part
        cap = (total - tail) // r
        if cap < 1:
            return tuple(caps)
        caps.append(cap)


def sxp_upper_bound(n: int, lam: Partition) -> BoundPair:
    """Upper bounds on partitions in supp(p_n o s_lam).

    Any mu of size n|lam| that contains lam has r-th row at most
    (n|lam| - |tail of lam after row r|) / r; the same lemma on columns (via
    the conjugate) gives a second bound, so every such mu, the support
    included, lies inside the intersection.  For the empty lam all three are
    empty, since p_n o s_() = s_().
    """
    if n < 1:
        raise ValueError("plethysm exponent n must be >= 1")
    total = n * lam.size
    xi1 = _row_caps(total, lam.parts)
    xi2 = _conjugate(_row_caps(total, _conjugate(lam.parts)))
    inter = tuple([min(a, b) for a, b in zip(xi1, xi2)])
    return BoundPair(*map(Partition._from_parts, (xi1, xi2, inter)))


def plethysm_filter_check(nu: Sequence[int], lam: Sequence[int]) -> bool:
    """Necessary for <s_lam, s_mu o s_nu> != 0 for any mu: [nu] must be
    contained in [lam].  Each argument is a Partition or a part tuple."""
    return _contains(lam, nu)


def trivial_sign_multiplicity(mu: Partition, nu: Partition) -> tuple[int, int]:
    """Multiplicities of the full row and the full column in s_mu o s_nu,
    i.e. the coefficients of s_(N) and s_(1^N) with N = |mu|*|nu|.

    The row coefficient is 1 exactly when both mu and nu are single rows.
    The column coefficient is 1 exactly when nu is a single column and mu
    matches the parity of |nu|: a column for odd |nu|, a row for even |nu|
    (even exterior powers compose symmetrically, e.g. Sym^2(Lambda^2)
    contains Lambda^4).  Both are 0 otherwise, and never exceed 1.
    """
    if not mu:
        # s_() o s_nu is the constant 1 and both readings see coefficient 1
        return (1, 1)
    trivial = 1 if len(mu) <= 1 and len(nu) <= 1 else 0
    if nu[0] <= 1:
        wanted = mu[0] <= 1 if nu.size % 2 else len(mu) <= 1
        sign = 1 if wanted else 0
    else:
        sign = 0
    return (trivial, sign)


def enumerate_candidates(n: int, lam: Partition) -> list[Partition]:
    """Every partition that survives all three necessary conditions for
    membership in supp(p_n o s_lam): right size, contains lam, and has empty
    n-core.  Always a superset of the true support, in descending
    lexicographic order, and inside ``sxp_upper_bound``'s intersection,
    which holds every partition of size n|lam| that contains lam.
    """
    return [Partition._from_parts(mu) for mu in _candidate_parts(n, lam)]


def _candidate_parts(n: int, lam: Partition) -> list[tuple[int, ...]]:
    """enumerate_candidates as part tuples, the form ``filter sxp`` prints:
    the n-quotients of size |lam| with every component inside |lam| rows of
    width |lam|, placed with the empty core, whose partitions contain lam."""
    if n < 1:
        raise ValueError("plethysm exponent n must be >= 1")
    if n == 1 or not lam:  # p_1 o s_lam = s_lam, p_n o s_() = s_(), and lam
        return [lam.parts]  # is the only mu of its size that contains lam
    walk = _quotient_walk(n, lam.size, (lam.size,) * lam.size, lam.parts)
    return sorted([_partition_from_beta(beads) for _, beads in walk], reverse=True)
