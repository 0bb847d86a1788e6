import itertools
import random

import pytest

from schurkit import (
    Partition,
    all_partitions,
    decompose,
    ideal_complement,
    enumerate_candidates,
    lr_bound,
    multi_schur_product,
    partitions_of,
    plethysm_filter_check,
    schur_plethysm,
    size_row_bound,
    sxp_lower_check,
    sxp_plethysm,
    sxp_upper_bound,
    trivial_sign_multiplicity,
)
from schurkit.positivity import corner_sum

P = Partition


class TestLrBound:
    def test_worked_triple(self):
        assert lr_bound([P([3, 2]), P([1, 1]), P([1, 1])]) == P([5, 4, 2, 2, 1, 1])

    def test_single_factor_round_trip(self):
        for n in range(9):
            for lam in all_partitions(n):
                assert lr_bound([lam]) == lam

    def test_two_boxes(self):
        assert lr_bound([P([1]), P([1])]) == P([2, 1])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            lr_bound([])
        with pytest.raises(ValueError, match="at least one factor"):
            corner_sum([])

    def test_matches_ideal_complement_of_corner_sum(self):
        # the min-plus convolution against the ideal-complement reading, on
        # every ordered list of 1-3 factors (empty ones too) of total size <= 9
        lists = [()]
        for k in range(3):  # extend every list of k factors within the budget
            lists += [
                tup + (p,)
                for tup in lists if len(tup) == k
                for n in range(10 - sum(q.size for q in tup))
                for p in all_partitions(n)
            ]
        lists = lists[1:]
        assert len(lists) == 3964
        # and, since filter lr prints lr_bound as theta, on a seeded sample of
        # 4-5 factors (empty ones too) of total size <= 14
        rng = random.Random(18)
        for _ in range(2000):
            total = rng.randint(0, 14)
            cuts = sorted(rng.randint(0, total) for _ in range(rng.choice((3, 4))))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            lists.append(tuple(rng.choice(all_partitions(n)) for n in sizes))
        for tup in lists:
            assert lr_bound(list(tup)) == ideal_complement(corner_sum(list(tup))), tup

    def test_soundness_pairs(self):
        for a in range(6):
            for mu in all_partitions(a):
                for b in range(6 - a + 1):
                    for nu in all_partitions(b):
                        bound = lr_bound([mu, nu])
                        prod = multi_schur_product([mu, nu])
                        assert all(bound.contains(lam) for lam in prod.support())

    def test_soundness_triples(self):
        triples = [
            tup
            for tup in itertools.combinations_with_replacement(
                [p for n in range(1, 4) for p in all_partitions(n)], 3
            )
            if sum(p.size for p in tup) <= 7
        ]
        for tup in triples:
            bound = lr_bound(list(tup))
            prod = multi_schur_product(list(tup))
            assert all(bound.contains(lam) for lam in prod.support())


class TestSxpBounds:
    def test_exponent_below_one(self):
        for bound in (sxp_upper_bound, enumerate_candidates):
            for n in (0, -2):
                with pytest.raises(ValueError, match="exponent n must be >= 1"):
                    bound(n, P([1]))

    def test_lower_check_examples(self):
        assert sxp_lower_check(P([3, 2]), P([6, 4]))
        assert not sxp_lower_check(P([3, 2]), P([10]))
        assert sxp_lower_check(P(), P([4, 1]))

    def test_checks_take_part_tuples(self):
        # the sweeps and stats call both filters on part tuples
        pool = [p for n in range(6) for p in all_partitions(n)]
        for a in pool:
            for b in pool:
                fits = b.contains(a)
                assert sxp_lower_check(a.parts, b.parts) == sxp_lower_check(a, b) == fits
                assert plethysm_filter_check(a.parts, b) == plethysm_filter_check(a, b) == fits

    def test_upper_bound_worked_example(self):
        bp = sxp_upper_bound(2, P([3, 2]))
        assert bp.xi1 == P([8, 5, 3, 2, 2, 1, 1, 1, 1, 1])
        assert bp.xi2 == P([10, 5, 3, 2, 1, 1, 1])
        assert bp.intersection == P([8, 5, 3, 2, 1, 1, 1])

    def test_size_only_bound(self):
        assert size_row_bound(10) == P([10, 5, 3, 2, 2, 1, 1, 1, 1, 1])
        for t in range(41):
            assert size_row_bound(t) == P(t // r for r in range(1, t + 1)), t

    def test_identity_exponent_contains_lambda(self):
        for n in range(7):
            for lam in all_partitions(n):
                assert sxp_upper_bound(1, lam).intersection.contains(lam)

    def test_empty_lambda_bound(self):
        # p_n o s_() = s_(), so every bound is the empty partition
        for n in (1, 2, 5):
            bp = sxp_upper_bound(n, P())
            assert bp.xi1 == bp.xi2 == bp.intersection == P()

    def test_bound_holds_for_every_containing_partition(self):
        # the lemma enumerate_candidates relies on: size n|lam| and lam
        # inside mu already put mu inside the intersection
        count = 0
        for n in range(1, 5):
            for size in range(16 // n + 1):
                for lam in all_partitions(size):
                    inter = sxp_upper_bound(n, lam).intersection
                    for mu in all_partitions(n * size):
                        if mu.contains(lam):
                            assert inter.contains(mu), (n, lam, mu)
                            count += 1
        assert count == 8235

    def test_soundness(self):
        for n in (2, 3):
            for size in range(1, 6):
                for lam in all_partitions(size):
                    inter = sxp_upper_bound(n, lam).intersection
                    for mu in sxp_plethysm(n, lam).support():
                        assert sxp_lower_check(lam, mu)
                        assert inter.contains(mu)


class TestPlethysmFilter:
    def test_reflexive(self):
        assert plethysm_filter_check(P([3, 1]), P([3, 1]))

    def test_single_row_fails(self):
        assert not plethysm_filter_check(P([4, 2, 2]), P([16]))

    def test_filter_count_142(self):
        nu = P([4, 2, 2])
        count = sum(1 for lam in all_partitions(16) if plethysm_filter_check(nu, lam))
        assert count == 142

    def test_soundness_small(self):
        for a in range(1, 5):
            for mu in all_partitions(a):
                for b in range(1, 5):
                    if a * b > 8:
                        continue
                    for nu in all_partitions(b):
                        for lam in schur_plethysm(mu, nu).support():
                            assert plethysm_filter_check(nu, lam)


class TestTrivialSign:
    def test_rows(self):
        assert trivial_sign_multiplicity(P([3]), P([2])) == (1, 0)

    def test_columns_odd(self):
        assert trivial_sign_multiplicity(P([1, 1]), P([1, 1, 1])) == (0, 1)

    def test_columns_even(self):
        assert trivial_sign_multiplicity(P([1, 1]), P([1, 1])) == (0, 0)

    def test_even_column_with_row_outer(self):
        # Sym^2 of an even exterior power contains the top exterior power
        assert trivial_sign_multiplicity(P([2]), P([1, 1])) == (0, 1)

    def test_matches_extraction(self):
        for a in range(0, 5):
            for mu in all_partitions(a):
                for b in range(0, 5):
                    if a * b > 10:
                        continue
                    for nu in all_partitions(b):
                        e = schur_plethysm(mu, nu)
                        degree = a * b
                        row = P([degree]) if degree else P()
                        col = P([1] * degree)
                        assert trivial_sign_multiplicity(mu, nu) == (
                            e.coefficient(row),
                            e.coefficient(col),
                        )


class TestEnumerateCandidates:
    def test_contains_true_support(self):
        cands = set(enumerate_candidates(2, P([3, 2])))
        support = sxp_plethysm(2, P([3, 2])).support()
        assert support <= cands
        assert len(support) == 12

    def test_identity_exponent(self):
        for lam in all_partitions(4):
            assert enumerate_candidates(1, lam) == [lam]
        # p(60) = 966467: the walk must not visit every partition of |lam|
        lam = P([11, 10, 9, 8, 7, 6, 5, 4])
        assert enumerate_candidates(1, lam) == [lam]

    def test_golden_count(self):
        # frozen from an exhaustive enumeration; must sit between the true
        # support size 12 and p(10) = 42
        assert len(enumerate_candidates(2, P([3, 2]))) == 22

    def test_all_conditions_hold(self):
        n, lam = 2, P([2, 2])
        inter = sxp_upper_bound(n, lam).intersection
        for mu in enumerate_candidates(n, lam):
            assert mu.size == n * lam.size
            assert mu.contains(lam)
            assert inter.contains(mu)
            assert not decompose(mu, n).core

    def test_empty_lambda(self):
        assert enumerate_candidates(3, P()) == [P()]

    def test_matches_definition_exhaustively(self):
        # reference: scan every partition of n|lam| and test each condition,
        # including the core by a full decompose
        cases = 0
        for n in range(1, 7):
            for size in range(12 // n + 1):
                for lam in all_partitions(size):
                    upper = sxp_upper_bound(n, lam).intersection
                    want = [
                        mu
                        for mu in partitions_of(n * size)
                        if mu.contains(lam)
                        and upper.contains(mu)
                        and not decompose(mu, n).core
                    ]
                    assert enumerate_candidates(n, lam) == want, (n, lam)
                    cases += 1
        assert cases == 329
