"""n-cores, n-quotients and rim-hook signs.

Everything here runs on the abacus: a partition with m parts (padded with
zeros so that n divides m) is encoded by its beta-set, the strictly
decreasing first-column hook lengths beta_i = lam_i + m - i.  Position b
becomes a bead on runner b mod n at level b div n: ``_runners`` is that one
split, and ``_place`` the one way back from runners to a partition.  Then

* removing a rim hook of length n  =  moving one bead down one level, and
  the hook's height is the number of beads it jumps over (``_rim_hooks``);
* the n-core  =  pushing every bead to the bottom of its runner;
* the n-quotient  =  reading each runner's bead levels as a beta-set of
  its own.

Padding m by another multiple of n shifts every runner up uniformly and adds
one bottom bead per runner, so the runner labelling, core and quotient are
all independent of the padding.  Runner k carries quotient component k.

The walk's table and ``_abacus_sign``'s runner keys keep their own forms on
the hot SXP path: the table built from ``_beta_set`` measured 1.07x slower,
and cProfile puts the sign at about 9% of the SXP path's own time.

The SXP index set lives here, and so does the only knowledge of its bead
layout: ``_quotient_walk`` runs over the n-quotients of int part tuples
inside an outer shape, places each with the empty core, and hands back its
beads in descending order, keeping only those whose partition contains a
given inner shape.  Its table shares the bottom run of beads below the
shapes of one row count, and the walk runs from one explicit stack.  A
caller reads its answer off the beads with ``_partition_from_beta`` and
``_abacus_sign``.
"""

from __future__ import annotations

from itertools import takewhile
from operator import ge, sub
from typing import Iterator, NamedTuple, Sequence

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


def _partition_from_beta(beta: Sequence[int]) -> tuple[int, ...]:
    """Inverse of _beta_set for distinct bead positions in descending order:
    a bead's part is the number of empty positions below it, and parts fall,
    so the tuple ends before the first zero.  The beads are not sorted here."""
    return tuple(list(takewhile(bool, map(sub, beta, range(len(beta) - 1, -1, -1)))))


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


def _runners(mu: Partition | tuple[int, ...], n: int) -> tuple[list[int], list[list[int]]]:
    """mu's beta-set on the fewest beads that n divides, and each runner's
    bead levels; beta falls, so each runner's levels fall too."""
    beta = _beta_set(mu, -(-len(mu) // n) * n)
    levels: list[list[int]] = [[] for _ in range(n)]
    for b in beta:
        levels[b % n].append(b // n)
    return beta, levels


def _place(n: int, counts: Sequence[int], quotient: Sequence) -> tuple[int, ...]:
    """The parts of the partition with counts[i] beads on runner i, lifted by
    quotient component i; each count must be at least its component's length."""
    beads = [i + n * b for i, q in enumerate(quotient) for b in _beta_set(q, counts[i])]
    return _partition_from_beta(sorted(beads, reverse=True))


def decompose(mu: Partition, n: int) -> QuotientDecomposition:
    """Split mu into its n-core and n-quotient, read off the abacus with no
    rim-hook removal order; the sign is filled in only when the core is empty."""
    if n < 1:
        raise ValueError("modulus n must be >= 1")
    beta, levels = _runners(mu, n)
    core = Partition(_place(n, [len(r) for r in levels], [()] * n))
    quotient = tuple(Partition(_partition_from_beta(runner)) for runner in levels)
    sign = None if core else _abacus_sign(beta, n)
    return QuotientDecomposition(n=n, core=core, quotient=quotient, sign=sign)


def _abacus_sign(beta: Sequence[int], n: int) -> int:
    """(-1) to the total height of pushing every bead of an empty-core
    beta-set (descending) down.  The beads end at keys rank * n + runner
    (rank counted from the bottom of the runner), which fill 0 .. m-1.  A
    move over h beads is h transpositions of the bead order and never passes
    a bead on its own runner, so the height has the parity of the inversions
    of the permutation from the beads' positions to their keys.  From the
    top, runner r's keys fall from m-n+r by n; bead i inverts with the i beads
    above it less those in order, one bit per key seen.  Once bead i sits at
    m-1-i, it and all below fill the bottom at their own keys: no inversions."""
    m = len(beta)
    keys = list(range(m - n, m))  # each runner's next key from the top
    seen = inversions = 0
    for i, b in enumerate(beta):
        if b == m - 1 - i:
            break
        k = keys[b % n]
        keys[b % n] = k - n
        inversions += i - (seen >> k).bit_count()
        seen |= 1 << k
    return -1 if inversions % 2 else 1


def _has_empty_core(mu: tuple[int, ...], n: int) -> bool:
    """Whether the part tuple mu has empty n-core: all runners hold as many beads."""
    return len({len(r) for r in _runners(mu, n)[1]}) == 1


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
    # spare beads on every runner move no core cell and make room for each component
    extra = max((len(q) for q in quotient), default=0)
    counts = [len(r) + extra for r in _runners(core, n)[1]]
    return Partition(_place(n, counts, quotient))


# a bound on time, not on depth: n = 256 takes ~1 s on (1)
MAX_WALK_N = 256


def _quotient_walk(n: int, total: int, outer: Sequence[int],
                   inner: Sequence[int] = ()) -> Iterator:
    """Every n-quotient of size ``total`` whose components fit inside
    ``outer``, as part tuples, with the beads of the partition mu it gives
    with the empty core, in descending order; only the quotients whose mu
    contains ``inner`` are kept.  Every runner holds c = len(outer) + 1
    beads, more than any component has parts, so a component's positions on
    runner i do not depend on the others: one table per call holds them, its
    parts' beads (grown row by row) and then the run below, one run shared by
    all shapes of as many rows.  The walk pops (runner, cells left,
    components, beads) entries off one list and nests no frame per runner,
    so it takes any n >= 1; both callers still answer n = 1 themselves, with
    no table (p_1 o s_lam = s_lam, and lam is the only candidate).
    With M = n * c beads in all, the k-th largest bead is mu_k + M-1-k, so mu
    contains inner exactly when it is at least inner_k + M-1-k for every k.
    An n over MAX_WALK_N raises ValueError before the table is built."""
    if n > MAX_WALK_N:
        raise ValueError(f"n = {n} is over the quotient walk's bound of {MAX_WALK_N}")
    c = len(outer) + 1
    runs = [[n * b + i for b in range(c - 1, -1, -1)] for i in range(n)]
    table = [[[] for _ in range(total + 1)] for _ in range(n)]
    row = [((), total, [])]  # shapes of r rows, cells left, their parts' beads
    for r in range(c):
        tails = [run[r:] for run in runs]  # the run below every shape of r rows
        for q, left, nb in row:  # shifted onto every runner, q as a 1-tuple
            for i, sizes in enumerate(table):
                sizes[total - left].append(((q,), [b + i for b in nb] + tails[i]))
        if r < len(outer):
            row = [(q + (p,), left - p, nb + [n * (p + c - 1 - r)]) for q, left, nb in row
                   for p in range(1, min(outer[r], q[-1] if q else left, left) + 1)]
    floor = [p + n * c - 1 - k for k, p in enumerate(inner)]

    stack = [(0, total, (), [])]  # runner, cells left, components, beads so far
    while stack:
        i, left, qs, beads = stack.pop()
        if i < n - 1:  # children pushed in reverse, so they pop in table order
            for size in range(left, -1, -1):
                for q, pos in reversed(table[i][size]):
                    stack.append((i + 1, left - size, qs + q, beads + pos))
            continue
        for q, pos in table[i][left]:
            b = beads + pos
            b.sort(reverse=True)
            if not floor or all(map(ge, b, floor)):
                yield qs + q, b


def sxp_sign(mu: Partition, n: int) -> int:
    """(-1) to the total height of any complete sequence of n-rim-hook
    removals taking mu down to the empty partition."""
    d = decompose(mu, n)
    if d.core:
        raise NonEmptyCoreError(f"{mu!r} has non-empty {n}-core")
    return d.sign

