import random

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
from schurkit.quotients import (
    _abacus_sign,
    _beads_between,
    _beta_set,
    _has_empty_core,
    _padded_length,
)

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
        total += _beads_between(positions, b - n, b)
        positions.remove(b)
        positions.add(b - n)


def _inversion_sign(beta, n):
    """The abacus sign by the inversion count between the beads' positions
    and their keys, the quadratic reference for _abacus_sign's cycle count."""
    rank = [0] * n
    keys = []
    for b in reversed(beta):
        keys.append(rank[b % n] * n + b % n)
        rank[b % n] += 1
    inversions = sum(1 for i, k in enumerate(keys) for j in keys[:i] if j > k)
    return -1 if inversions % 2 else 1


class TestDecompose:
    def test_no_removable_hook(self):
        d = decompose(P([1]), 2)
        assert d.core == P([1])
        assert d.quotient == (P(), P())
        assert d.sign is None

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
                    for m in (_padded_length(len(mu), n), _padded_length(len(mu), n) + n):
                        beta = _beta_set(mu, m)
                        assert _abacus_sign(beta, n) == _inversion_sign(beta, n), (mu, n)
                        checked += 1
        assert checked > 1000


class TestReconstruct:
    def test_round_trip_exhaustive(self):
        for n in range(1, 5):
            for size in range(15):
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
                    m = _padded_length(len(mu), n)
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

