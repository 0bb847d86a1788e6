import inspect
import itertools
import random
import sys
from operator import ge

import pytest

from schurkit import (
    NonEmptyCoreError,
    NotACoreError,
    Partition,
    all_partitions,
    decompose,
    reconstruct,
    sxp_plethysm,
    sxp_sign,
)
from schurkit.positivity import _candidate_parts
from schurkit.quotients import (
    MAX_WALK_N,
    _abacus_sign,
    _beta_set,
    _has_empty_core,
    _partition_from_beta,
    _quotient_walk,
    _rim_hooks,
    _runners,
)
from schurkit.schur import _product_coefficient

P = Partition


def _removal_parity(positions, n, pick):
    """Parity of the total rim-hook height accumulated while pushing all
    beads down one move at a time.  ``pick`` selects which movable bead goes
    next; the parity is the same for every choice.  decompose reads the sign
    off the abacus instead; this simulation is the reference that reading is
    checked against, with random picks."""
    total = 0
    while True:
        movable = sorted(b for b in positions if b >= n and b - n not in positions)
        if not movable:
            return total % 2
        b = movable[pick(movable)]
        total += sum(1 for x in positions if b - n < x < b)
        positions.remove(b)
        positions.add(b - n)


def _inversion_sign(beta, n):
    """The abacus sign by the inversion count between the beads' positions
    and their keys, the quadratic reference for _abacus_sign's bit count."""
    rank = [0] * n
    keys = []
    for b in reversed(beta):
        keys.append(rank[b % n] * n + b % n)
        rank[b % n] += 1
    inversions = sum(1 for i, k in enumerate(keys) for j in keys[:i] if j > k)
    return -1 if inversions % 2 else 1


def _diagram_rim_hooks(mu, k):
    """(nu, sign) for every nu inside mu with |mu| - |nu| = k whose skew
    diagram mu/nu is connected and holds no 2x2 block, signed by (-1) to its
    rows minus one: the definition of a rim hook, read off cells, no beads."""
    out = []
    for nu in all_partitions(sum(mu) - k):
        inner = nu.parts + (0,) * (len(mu) - len(nu))
        if len(inner) > len(mu) or any(a < b for a, b in zip(mu, inner)):
            continue
        cells = {(r, c) for r, p in enumerate(mu) for c in range(inner[r], p)}
        if any({(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells for r, c in cells):
            continue
        seen, stack = set(), [min(cells)]
        while stack:
            r, c = stack.pop()
            if (r, c) in cells and (r, c) not in seen:
                seen.add((r, c))
                stack += [(r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)]
        if seen == cells:
            out.append((nu.parts, (-1) ** (len({r for r, _ in cells}) - 1)))
    return sorted(out)


def _parts_by_sorting(beads):
    """Parts of any set of distinct bead positions, in any order: sorted
    ascending, the i-th bead has b - i empty positions below it.  The
    reference for _partition_from_beta, which reads descending beads as
    they come."""
    parts = [b - i for i, b in enumerate(sorted(beads)) if b > i]
    return tuple(reversed(parts))


def _reference_walk(n, total, outer, inner=()):
    """_quotient_walk as one generator frame per runner, each shape's table
    entry a fresh list of all its beads, and every shape rescanned per row:
    the reference for the walk's leaf order, quotients and beads."""
    c = len(outer) + 1
    shapes = [()]
    for r, cap in enumerate(outer):
        shapes += [
            q + (p,) for q in shapes if len(q) == r
            for p in range(1, min(cap, q[-1] if q else cap, total - sum(q)) + 1)
        ]
    table = [[[] for _ in range(total + 1)] for _ in range(n)]
    for q in shapes:
        nb = [n * b for b in _beta_set(q, c)]
        for i, row in enumerate(table):
            row[sum(q)].append((q, [b + i for b in nb]))
    floor = [p + n * c - 1 - k for k, p in enumerate(inner)]

    def walk(i, left, qs, beads):
        if i == n - 1:
            for q, pos in table[i][left]:
                b = beads + pos
                b.sort(reverse=True)
                if not floor or all(map(ge, b, floor)):
                    yield qs + (q,), b
            return
        for size in range(left + 1):
            for q, pos in table[i][size]:
                yield from walk(i + 1, left - size, qs + (q,), beads + pos)

    return walk(0, total, (), [])


# the walk tests' component bounds and containment floors
WALK_OUTERS = [(), (1,), (2,), (1, 1), (2, 1), (3, 1, 1), (2, 2), (4, 4, 4, 4)]
WALK_INNERS = [(), (1,), (2,), (1, 1), (2, 1), (3, 2), (2, 2, 1), (5, 5)]


def _quotients_inside(n, total, outer):
    """Every n-tuple of part tuples inside ``outer`` with sizes summing to
    ``total``, by brute force over all such tuples of partitions."""
    inside = [
        q.parts for size in range(total + 1) for q in all_partitions(size)
        if P(outer).contains(q)
    ]
    tuples = itertools.product(inside, repeat=n)
    return sorted(t for t in tuples if sum(map(sum, t)) == total)


class TestPartitionFromBeta:
    def test_matches_sort_reference(self):
        rng = random.Random(19)
        cases = [[]]
        for _ in range(3000):
            m = rng.randint(1, 30)
            beads = rng.sample(range(2 * m + rng.randint(0, 20)), m)
            cases.append(sorted(beads, reverse=True))
        assert any(beads == list(range(len(beads) - 1, -1, -1)) for beads in cases[1:])
        for beads in cases:
            assert _partition_from_beta(beads) == _parts_by_sorting(beads), beads

    def test_edge_cases(self):
        # every bead packed, no packed bottom, a single bead
        for m in range(6):
            assert _partition_from_beta(list(range(m - 1, -1, -1))) == ()
        assert _partition_from_beta([9, 5, 3, 1]) == (6, 3, 2, 1)
        assert _partition_from_beta([4, 3, 2, 1]) == (1, 1, 1, 1)
        assert _partition_from_beta([7, 2, 1, 0]) == (4,)
        for b in range(5):
            assert _partition_from_beta([b]) == ((b,) if b else ())


class TestQuotientWalk:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_brute_force(self, n):
        # every yielded quotient once, with strictly descending beads that give
        # reconstruct's mu; a nonempty inner keeps exactly the quotients whose
        # mu contains it, with Partition.contains as the reference
        checked = dropped = 0
        for outer in WALK_OUTERS:
            for total in range(6 if n < 4 else 5):
                mus = {
                    qs: reconstruct(n, P(), [P(q) for q in qs])
                    for qs in _quotients_inside(n, total, outer)
                }
                for inner in WALK_INNERS:
                    walk = list(_quotient_walk(n, total, outer, inner))
                    got = [qs for qs, _ in walk]
                    want = [qs for qs, mu in mus.items() if mu.contains(P(inner))]
                    assert sorted(got) == want, (total, outer, inner)
                    assert len(set(got)) == len(got)
                    for qs, beads in walk:
                        assert all(a > b for a, b in zip(beads, beads[1:])), beads
                        assert _partition_from_beta(beads) == mus[qs].parts
                    checked += len(walk)
                    dropped += len(mus) - len(walk)
        assert checked > 40 and dropped > 20

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_reference_walk_in_order(self, n):
        # the leaf order is what sxp_plethysm's term dict, and so the sweeps'
        # first bad term, follows: the same quotients and beads, in order
        leaves = 0
        for outer in WALK_OUTERS + [(6, 6, 6, 6, 6, 6)]:
            for total in range(7 if n < 4 else 6):
                for inner in WALK_INNERS:
                    got = list(_quotient_walk(n, total, outer, inner))
                    assert got == list(_reference_walk(n, total, outer, inner)), (
                        total, outer, inner)
                    leaves += len(got)
        assert leaves > 300

    def test_bound_runs_near_the_recursion_limit(self):
        # the walk nests no frame per runner: at n = MAX_WALK_N it runs from
        # a caller already within 150 frames of the recursion limit
        def near_limit(depth):
            if depth < sys.getrecursionlimit() - 150:
                return near_limit(depth + 1)
            return list(_quotient_walk(MAX_WALK_N, 1, (1,)))

        leaves = near_limit(len(inspect.stack(0)))
        assert [qs.index((1,)) for qs, _ in leaves] == list(range(MAX_WALK_N - 1, -1, -1))

    def test_identity_arms_match_the_walk(self):
        # at n = 1 both callers skip the walk; what they answer is what the
        # walk gives: lam is the only candidate, and p_1 o s_lam = s_lam
        for size in range(8):
            for lam in all_partitions(size):
                walk = list(_quotient_walk(1, size, (size,) * size, lam.parts))
                assert [_partition_from_beta(b) for _, b in walk] == [lam.parts]
                assert _candidate_parts(1, lam) == [lam.parts]
                terms = {
                    _partition_from_beta(b): _product_coefficient(lam.parts, qs) * _abacus_sign(b, 1)
                    for qs, b in _quotient_walk(1, size, lam.parts)
                }
                assert sxp_plethysm(1, lam)._parts == terms, lam

    def test_no_cyclic_garbage(self, cyclic_garbage):
        # the walk holds its table and stack in its own frame: they are
        # freed when the walk is exhausted or closed early
        def first_leaf():
            leaves = _quotient_walk(3, 8, (5, 3))
            next(leaves)
            leaves.close()

        assert cyclic_garbage(lambda: list(_quotient_walk(3, 8, (5, 3)))) == 0
        assert cyclic_garbage(first_leaf) == 0


class TestRimHooks:
    def test_matches_diagram_definition(self):
        # every mu of size <= 12 and every hook length 1 .. |mu|
        checked = 0
        for size in range(13):
            for mu in all_partitions(size):
                for k in range(1, size + 1):
                    got = _rim_hooks(mu.parts, k)
                    assert sorted(got) == _diagram_rim_hooks(mu.parts, k), (mu, k)
                    checked += len(got)
        assert checked > 1000


class TestDecompose:
    def test_no_removable_hook(self):
        d = decompose(P([1]), 2)
        assert d.core == P([1])
        assert d.quotient == (P(), P())
        assert d.sign is None

    def test_modulus_below_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="modulus n must be >= 1"):
                decompose(P([1]), n)
            with pytest.raises(ValueError, match="modulus n must be >= 1"):
                reconstruct(n, P(), ())

    def test_two_by_two(self):
        d = decompose(P([2, 2]), 2)
        assert d.core == P()
        assert sum(q.size for q in d.quotient) == 2

    def test_row_convention_pin(self):
        # fixes the runner labelling: beta positions mod n with the bead
        # count padded to a multiple of n
        d = decompose(P([6, 4]), 2)
        assert d.core == P()
        assert d.quotient == (P([2]), P([3]))

    def test_size_formula_sweep(self):
        for n in range(2, 6):
            for size in range(17):
                for mu in all_partitions(size):
                    d = decompose(mu, n)
                    assert mu.size == d.core.size + n * sum(q.size for q in d.quotient)

    def test_sign_exactly_when_core_empty(self):
        # the sign field is None exactly when the core is nonempty, else +-1
        for n in range(1, 6):
            for size in range(13):
                for mu in all_partitions(size):
                    d = decompose(mu, n)
                    if d.core:
                        assert d.sign is None, (mu, n)
                    else:
                        assert d.sign in (1, -1), (mu, n)

    def test_padding_invariance(self):
        # computing with extra zero parts must not change anything
        for mu in all_partitions(6):
            for n in (2, 3):
                base = decompose(mu, n)
                padded = decompose(P(list(mu.parts) + [0] * n), n)
                assert (base.core, base.quotient) == (padded.core, padded.quotient)


class TestAbacusTuples:
    def test_empty_core_matches_decompose(self):
        for size in range(17):
            for mu in all_partitions(size):
                for n in range(1, 7):
                    assert _has_empty_core(mu.parts, n) == (not decompose(mu, n).core)

    def test_sign_matches_inversion_count(self):
        # every empty-core partition of size <= 18, at its own padding and
        # one runner's worth of beads more
        checked = 0
        for n in range(1, 7):
            for size in range(0, 19, n):
                for mu in all_partitions(size):
                    if decompose(mu, n).core:
                        continue
                    m0 = len(_runners(mu, n)[0])
                    for m in (m0, m0 + n):
                        beta = _beta_set(mu, m)
                        assert _abacus_sign(beta, n) == _inversion_sign(beta, n), (mu, n)
                        checked += 1
        assert checked > 1000

    def test_sign_edge_cases(self):
        # every bead packed (the empty partition), no packed bottom (every
        # row nonempty, so the lowest bead sits above 0), a single bead
        cases = [(list(range(m - 1, -1, -1)), n)
                 for n in range(1, 5) for m in range(0, 13, n)]
        for n in range(1, 5):
            for size in range(0, 13, n):
                for mu in all_partitions(size):
                    if len(mu) % n == 0 and not decompose(mu, n).core:
                        cases.append((_beta_set(mu, len(mu)), n))
        cases += [([b], 1) for b in range(6)]
        assert any(beta and beta[-1] > 0 for beta, n in cases if n > 1)
        for beta, n in cases:
            assert _abacus_sign(beta, n) == _inversion_sign(beta, n), (beta, n)
            if not _partition_from_beta(beta):
                assert _abacus_sign(beta, n) == 1


class TestReconstruct:
    def test_round_trip_exhaustive(self):
        for n in range(1, 8):
            for size in range(17):
                for mu in all_partitions(size):
                    d = decompose(mu, n)
                    assert reconstruct(n, d.core, d.quotient) == mu

    def test_inverse_direction(self):
        # decompose(reconstruct(...)) gives back the same core and quotient
        cores = {decompose(mu, 3).core for mu in all_partitions(5)}
        quotients = [
            (a, b, c)
            for a in all_partitions(1) + all_partitions(0)
            for b in all_partitions(2) + all_partitions(0)
            for c in all_partitions(1) + all_partitions(0)
        ]
        for core in cores:
            for quot in quotients:
                mu = reconstruct(3, core, quot)
                d = decompose(mu, 3)
                assert d.core == core
                assert d.quotient == quot

    def test_empty(self):
        assert reconstruct(3, P(), (P(), P(), P())) == P()

    def test_inverse_of_decompose_example(self):
        assert reconstruct(2, P([1]), (P(), P())) == P([1])

    def test_known_size(self):
        mu = reconstruct(2, P(), (P([3, 2]), P()))
        assert mu.size == 10
        assert decompose(mu, 2).core == P()

    def test_not_a_core(self):
        with pytest.raises(NotACoreError):
            reconstruct(2, P([2]), (P(), P()))

    def test_not_a_core_exactly_when_decompose_moves_it(self):
        # the reference: c is an n-core exactly when it is its own n-core
        for n in range(1, 6):
            empty = (P(),) * n
            for size in range(13):
                for c in all_partitions(size):
                    if decompose(c, n).core != c:
                        with pytest.raises(NotACoreError):
                            reconstruct(n, c, empty)
                    else:
                        assert reconstruct(n, c, empty) == c

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            reconstruct(2, P(), (P(),))


class TestSxpSign:
    def test_known_values(self):
        assert sxp_sign(P([6, 4]), 2) == 1
        assert sxp_sign(P([3, 3, 2, 2]), 2) == -1
        assert sxp_sign(P([2]), 2) == 1

    def test_matches_decompose_field(self):
        for mu in all_partitions(8):
            d = decompose(mu, 2)
            if not d.core:
                assert d.sign == sxp_sign(mu, 2)

    def test_non_empty_core_rejected(self):
        with pytest.raises(NonEmptyCoreError):
            sxp_sign(P([1]), 2)
        with pytest.raises(NonEmptyCoreError):
            sxp_sign(P([3, 1]), 3)

    def test_order_invariance_random(self):
        # the abacus reading agrees with removing the rim hooks one at a
        # time, in any order
        rng = random.Random(11)
        for n in (2, 3, 4, 5):
            for size in range(0, 13, n):
                for mu in all_partitions(size):
                    if decompose(mu, n).core:
                        continue
                    m = len(_runners(mu, n)[0])
                    sign = sxp_sign(mu, n)
                    for _ in range(3):
                        parity = _removal_parity(
                            set(_beta_set(mu, m)),
                            n,
                            pick=lambda movable: rng.randrange(len(movable)),
                        )
                        assert sign == (-1) ** parity

    def test_support_has_empty_core(self):
        for n in (2, 3):
            for lam in all_partitions(4):
                for mu in sxp_plethysm(n, lam).support():
                    assert not decompose(mu, n).core

