"""n-cores, n-quotients and rim-hook signs.

Everything here runs on the abacus: a partition with m parts (padded with
zeros so that n divides m) is encoded by its beta-set, the strictly
decreasing first-column hook lengths beta_i = lam_i + m - i.  Position b
becomes a bead on runner b mod n at level b div n.  Then

* removing a rim hook of length n  =  moving one bead down one level, and
  the hook's height is the number of beads it jumps over (``_rim_hooks``);
* the n-core  =  pushing every bead to the bottom of its runner;
* the n-quotient  =  reading each runner's bead levels as a beta-set of
  its own.

Padding m by another multiple of n shifts every runner up uniformly and adds
one bottom bead per runner, so the runner labelling, core and quotient are
all independent of the padding.  Runner k carries quotient component k.

The SXP index set lives here: ``_quotient_walk`` runs over n-quotients of
int part tuples and places each with the empty core and one bead per runner
more than the longest component may have parts.  ``enumerate_candidates``
walks every component (|lam| rows, so |lam| + 1 beads) and tests containment
on the beads; ``sxp_plethysm`` walks only components inside lam
(len(lam) + 1 beads) and reads mu and its sign off the beads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .partitions import Partition


class NotACoreError(ValueError):
    """The given partition still has a removable rim hook of length n."""


class NonEmptyCoreError(ValueError):
    """The sign is only defined for partitions with empty n-core."""


class QuotientDecomposition(NamedTuple):
    """Core, quotient and (when the core is empty) rim-hook sign of a
    partition with respect to a fixed modulus n.

    Satisfies |mu| = |core| + n * sum of quotient sizes, and reconstruct()
    inverts it exactly.
    """

    n: int
    core: Partition
    quotient: tuple[Partition, ...]
    sign: int | None


def _beta_set(mu: Partition | tuple[int, ...], m: int) -> list[int]:
    """First-column hook lengths of mu padded to m parts; strictly decreasing."""
    beta = [p + m - 1 - i for i, p in enumerate(mu)]
    return beta + list(range(m - 1 - len(mu), -1, -1))


def _partition_from_beta(beta: Iterable[int]) -> tuple[int, ...]:
    """Inverse of _beta_set for any set of distinct bead positions, as a plain
    tuple of parts without trailing zeros: a bead's part is the number of
    empty positions below it."""
    parts = [b - i for i, b in enumerate(sorted(beta)) if b > i]
    return tuple(reversed(parts))


def _rim_hooks(mu: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], int]]:
    """Every (nu, (-1)^height) with nu left by removing a k-rim hook from mu:
    one bead move b -> b-k onto an empty position, jumping `height` beads.
    beta falls, so the scan stops at the first bead below k.  The jumped beads
    beta[i+1:j] move up a row and lose a cell each; the bead at t is row j-1."""
    m = len(mu)
    beta = _beta_set(mu, m)
    occupied = set(beta)
    out = []
    for i, b in enumerate(beta):
        t = b - k
        if t < 0:
            break
        if t not in occupied:
            j = i + 1
            while j < m and beta[j] > t:
                j += 1
            nu = mu[:i] + tuple([p - 1 for p in mu[i + 1 : j]]) + (t - m + j,) + mu[j:]
            out.append((nu[: len(nu) - nu.count(0)], 1 if (j - i) % 2 else -1))
    return out


def _padded_length(length: int, n: int) -> int:
    return -(-length // n) * n


def decompose(mu: Partition, n: int) -> QuotientDecomposition:
    """Split mu into its n-core and n-quotient.

    The result does not depend on any rim-hook removal order; the abacus
    computes the fixed point directly.  The sign field is filled in only when
    the core is empty.
    """
    if n < 1:
        raise ValueError("modulus n must be >= 1")
    m = _padded_length(len(mu), n)
    beta = _beta_set(mu, m)

    levels: list[list[int]] = [[] for _ in range(n)]
    for b in beta:
        levels[b % n].append(b // n)

    core_positions = [
        i + n * j for i, runner in enumerate(levels) for j in range(len(runner))
    ]
    core = Partition(_partition_from_beta(core_positions))

    quotient = tuple(Partition(_partition_from_beta(runner)) for runner in levels)

    sign = None if core else _abacus_sign(beta, n)
    return QuotientDecomposition(n=n, core=core, quotient=quotient, sign=sign)


def _abacus_sign(beta: Sequence[int], n: int) -> int:
    """(-1) to the total height of pushing every bead of an empty-core
    beta-set down.  The beads end at keys rank * n + runner (rank counted from
    the bottom of the runner), which fill 0 .. m-1.  A move over h beads is h
    transpositions of the bead order and never passes a bead on its own
    runner, so the height has the parity of the permutation from the beads'
    positions to their keys: m minus its number of cycles."""
    rank = [0] * n
    keys = []
    for b in reversed(beta):  # ascending positions
        keys.append(rank[b % n] * n + b % n)
        rank[b % n] += 1
    swaps = len(keys)
    for i in range(len(keys)):
        swaps -= keys[i] >= 0  # a cycle not yet walked; walking marks it -1
        j = i
        while keys[j] >= 0:
            keys[j], j = -1, keys[j]
    return -1 if swaps % 2 else 1


def _has_empty_core(mu: tuple[int, ...], n: int) -> bool:
    """Whether mu has empty n-core, on part tuples: padded to m beads with n
    dividing m, every runner holds m/n of them."""
    m = _padded_length(len(mu), n)
    runners = [b % n for b in _beta_set(mu, m)]
    return all(runners.count(i) == m // n for i in range(n))


def reconstruct(n: int, core: Partition, quotient: Sequence[Partition]) -> Partition:
    """Inverse of decompose: the unique partition with the given n-core and
    n-quotient.  ``core`` must itself be an n-core and ``quotient`` must have
    exactly n components."""
    if n < 1:
        raise ValueError("modulus n must be >= 1")
    if len(quotient) != n:
        raise ValueError(f"quotient must have {n} components, got {len(quotient)}")
    if _rim_hooks(core.parts, n):
        raise NotACoreError(f"{core!r} has a removable rim hook of length {n}")
    # component i lifts runner i's bottom beads by its parts; this padding
    # leaves every runner more beads than its component has parts
    max_quot = max((len(q) for q in quotient), default=0)
    counts = [0] * n
    for b in _beta_set(core, n * (len(core) + max_quot + 1)):
        counts[b % n] += 1
    beads = [i + n * b for i, q in enumerate(quotient) for b in _beta_set(q, counts[i])]
    return Partition(_partition_from_beta(beads))


# a frame per runner, well inside the recursion limit; n = 256 takes ~1 s on (1)
MAX_WALK_N = 256


def _quotient_walk(n: int, total: int, outer: Sequence[int]) -> Iterator:
    """Every n-quotient of size ``total`` whose components fit inside
    ``outer``, as part tuples, with the unsorted beads of the partition it
    gives with the empty core.  Every runner holds c = len(outer) + 1 beads,
    more than any component has parts, so a component's positions on
    runner i do not depend on the others: one table per call holds them.
    An n over MAX_WALK_N raises ValueError before the walk starts."""
    if n > MAX_WALK_N:
        raise ValueError(f"n = {n} is over the quotient walk's bound of {MAX_WALK_N}")
    c = len(outer) + 1
    shapes = [()]
    for r, cap in enumerate(outer):  # grow every shape of r rows by a row
        shapes += [
            q + (p,) for q in shapes if len(q) == r
            for p in range(1, min(cap, q[-1] if q else cap, total - sum(q)) + 1)
        ]
    table = [[[] for _ in range(total + 1)] for _ in range(n)]
    for q in shapes:
        for i in range(n):
            table[i][sum(q)].append((q, [i + n * b for b in _beta_set(q, c)]))

    def walk(i, left, qs, beads):
        if i == n - 1:
            for q, pos in table[i][left]:
                yield qs + (q,), beads + pos
            return
        for size in range(left + 1):
            for q, pos in table[i][size]:
                yield from walk(i + 1, left - size, qs + (q,), beads + pos)

    return walk(0, total, (), [])


def sxp_sign(mu: Partition, n: int) -> int:
    """(-1) to the total height of any complete sequence of n-rim-hook
    removals taking mu down to the empty partition."""
    d = decompose(mu, n)
    if d.core:
        raise NonEmptyCoreError(f"{mu!r} has non-empty {n}-core")
    return d.sign

