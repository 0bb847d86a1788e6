"""Necessary positivity conditions, packaged as cheap pruning predicates.

Each check here is a necessary condition for a coefficient to be nonzero, so
filtering candidates through them before running the exact (and expensive)
coefficient computation is always sound.  None of them is sufficient: a
candidate that passes may still have coefficient zero.
"""

from __future__ import annotations

from operator import add, ge
from typing import NamedTuple, Sequence

from .partitions import (
    Partition,
    Point,
    minkowski_sum,
    outer_corners,
)
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
    """
    if not mus:
        raise ValueError("lr_bound requires at least one factor")
    rows = mus[0].parts
    for mu in mus[1:]:
        a, b = rows + (0,) * len(mu), mu.parts + (0,) * len(rows)
        rows = tuple(min(map(add, a[: r + 1], b[r::-1])) for r in range(len(a)))
    return Partition(rows)


def sxp_lower_check(lam: Partition, mu: Partition) -> bool:
    """Necessary for <s_mu, p_n o s_lam> != 0 for any n: [lam] must be
    contained in [mu]."""
    return mu.contains(lam)


def size_row_bound(total: int) -> Partition:
    """Row caps forced by size alone: a partition of ``total`` has r-th row
    of length at most total // r."""
    return Partition(total // r for r in range(1, total + 1))


def _row_caps(n: int, lam: Partition) -> list[int]:
    total = n * lam.size
    caps = []
    tail = lam.size  # |(lam_{r+1}, lam_{r+2}, ...)| with r rows removed
    r = 0
    while True:
        r += 1
        tail -= lam[r - 1]
        cap = (total - tail) // r
        if cap < 1:
            return caps
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
    xi1 = Partition(_row_caps(n, lam))
    col_caps = _row_caps(n, lam.conjugate())
    xi2 = Partition(col_caps).conjugate()
    inter = Partition(
        min(xi1[i], xi2[i]) for i in range(min(len(xi1), len(xi2)))
    )
    return BoundPair(xi1=xi1, xi2=xi2, intersection=inter)


def plethysm_filter_check(nu: Partition, lam: Partition) -> bool:
    """Necessary for <s_lam, s_mu o s_nu> != 0 for any mu: [nu] must be
    contained in [lam]."""
    return lam.contains(nu)


def _is_single_row(p: Partition) -> bool:
    return len(p) <= 1


def _is_single_column(p: Partition) -> bool:
    return p[0] <= 1


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
    trivial = 1 if _is_single_row(mu) and _is_single_row(nu) else 0
    if _is_single_column(nu):
        wanted = _is_single_column(mu) if nu.size % 2 else _is_single_row(mu)
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

    The walk takes every component (|lam| rows of width |lam|) and places
    each n-quotient of size |lam| with the empty core and |lam| + 1 beads
    per runner, M in all, so size and core hold by construction; mu
    contains lam exactly when its k-th largest bead is at least
    lam_k + M-1-k, so only candidates become Partitions.
    """
    if n < 1:
        raise ValueError("plethysm exponent n must be >= 1")
    if n == 1 or not lam:  # p_1 o s_lam = s_lam, p_n o s_() = s_(), and lam
        return [lam]  # is the only mu of its size that contains lam
    c = lam.size + 1  # the walk's beads per runner
    need = [p + n * c - 1 - k for k, p in enumerate(lam)]
    out = []
    for _, beads in _quotient_walk(n, lam.size, (lam.size,) * lam.size):
        beads.sort(reverse=True)
        if all(map(ge, beads, need)):
            out.append(_partition_from_beta(beads))
    return [Partition(mu) for mu in sorted(out, reverse=True)]
