import random

import pytest

import schurkit.oracle as oracle
from schurkit import (
    Partition,
    SchurExpansion,
    all_partitions,
    schur_product,
    sxp_plethysm,
    z_of,
)
from schurkit.oracle import (
    _p_mult,
    _p_stretch,
    _schur_in_p,
    _table,
    oracle_plethysm,
    oracle_power_plethysm,
    oracle_product,
)
from schurkit.verification import check_products

P = Partition


def single(lam):
    return SchurExpansion(lam.size, {lam: 1})


class TestOracleProduct:
    def test_square_of_box(self):
        assert oracle_product(P([1]), P([1])) == SchurExpansion(
            2, {P([2]): 1, P([1, 1]): 1}
        )

    def test_identity(self):
        assert oracle_product(P([4, 2]), P()) == single(P([4, 2]))

    def test_single_coefficient_cross_path(self):
        from schurkit import lr_coefficient

        got = oracle_product(P([3, 2]), P([1, 1]))
        assert got.coefficient(P([4, 3])) == lr_coefficient(
            P([4, 3]), P([3, 2]), P([1, 1])
        )

    def test_zeros_from_cancellation_stay_out_of_answers(self):
        # (p_11 - p_2)(p_11 + p_2) = p_1111 - p_22: p_211 cancels to a zero
        # that the product keeps, and the basis change must drop
        prod = _p_mult(_schur_in_p(P([1, 1])), _schur_in_p(P([2])))
        assert prod[(2, 1, 1)] == 0
        got = oracle_product(P([1, 1]), P([2]))
        assert got == SchurExpansion(4, {P([3, 1]): 1, P([2, 1, 1]): 1})
        answers = [
            oracle_product(mu, nu)
            for a in range(9)
            for mu in all_partitions(a)
            for b in range(9 - a)
            for nu in all_partitions(b)
        ]
        answers += [
            oracle_power_plethysm(n, lam)
            for n in (1, 2, 3)
            for size in range(10 // n + 1)
            for lam in all_partitions(size)
        ]
        answers += [
            oracle_plethysm(mu, nu)
            for a in range(1, 9)
            for mu in all_partitions(a)
            for b in range(8 // a + 1)
            for nu in all_partitions(b)
        ]
        for e in answers:
            assert all(e.terms.values()), e

    def test_factor_order_does_not_matter(self):
        # the lr sweep compares both orders of a product with one answer
        for a in range(9):
            for mu in all_partitions(a):
                for b in range(9 - a):
                    for nu in all_partitions(b):
                        assert oracle_product(mu, nu) == oracle_product(nu, mu), (mu, nu)

    def test_matches_main_path_small(self):
        for a in range(4):
            for mu in all_partitions(a):
                for b in range(4):
                    for nu in all_partitions(b):
                        assert oracle_product(mu, nu) == schur_product(
                            single(mu), single(nu)
                        )


class TestOraclePlethysm:
    def test_power_exponent_below_one(self):
        for n in (0, -2):
            with pytest.raises(ValueError, match="exponent n must be >= 1"):
                oracle_power_plethysm(n, P([1]))

    def test_identity(self):
        for nu in all_partitions(4):
            assert oracle_plethysm(P([1]), nu) == single(nu)

    def test_h2_of_e2(self):
        assert oracle_plethysm(P([2]), P([1, 1])) == SchurExpansion(
            4, {P([2, 2]): 1, P([1, 1, 1, 1]): 1}
        )

    def test_folds_each_class_from_its_first_factor(self, monkeypatch):
        # one product per part after the first, over the classes rho with
        # chi^mu(rho) != 0: none is taken with the unit
        calls = []

        def counting(a, b):
            calls.append(1)
            return _p_mult(a, b)

        monkeypatch.setattr(oracle, "_p_mult", counting)
        for mu, nu, want in ((P([2, 1]), P([2]), 2), (P([3]), P([1, 1]), 3)):
            calls.clear()
            oracle_plethysm(mu, nu)
            assert len(calls) == want, (mu, nu)
        for mu in all_partitions(4):
            calls.clear()
            oracle_plethysm(mu, P([2]))
            assert len(calls) == sum(len(rho) - 1 for rho in _schur_in_p(mu)), mu

    def test_final_remarks_support(self):
        e = oracle_plethysm(P([1, 1]), P([4, 2, 2]))
        assert len(e) == 40

    def test_power_route_matches_sxp(self):
        # |lam| <= 4 for n <= 3, then n|lam| <= 16 up to n = 6, the largest n
        # the sxp benchmark runs
        sizes = [(n, size) for n in (1, 2, 3) for size in range(5)]
        sizes += [(n, size) for n in (4, 5, 6) for size in range(16 // n + 1)]
        for n, size in sizes:
            for lam in all_partitions(size):
                assert oracle_power_plethysm(n, lam) == sxp_plethysm(n, lam)


class TestPowerBasisAlgebra:
    """Power-sum vectors are integers keyed by part tuples."""

    def _random_pvec(self, rng, degree):
        terms = {}
        for rho in all_partitions(degree):
            if rng.random() < 0.4:
                terms[rho.parts] = rng.randint(-3, 3)
        return {k: v for k, v in terms.items() if v}

    def test_stretch_is_multiplicative(self):
        # p_n o (f * g) == (p_n o f) * (p_n o g)
        rng = random.Random(3)
        for _ in range(20):
            f = self._random_pvec(rng, rng.randint(1, 4))
            g = self._random_pvec(rng, rng.randint(1, 4))
            for n in (2, 3):
                lhs = _p_stretch(_p_mult(f, g), n)
                rhs = _p_mult(_p_stretch(f, n), _p_stretch(g, n))
                assert lhs == rhs

    def test_stretch_of_schur_image(self):
        # 2! s_2 = p_{1,1} + p_2, so p_2 o (2! s_2) = p_{2,2} + p_4
        doubled = _p_stretch(_schur_in_p(P([2])), 2)
        assert doubled == {(2, 2): 1, (4,): 1}

    def test_p_mult_is_union(self):
        assert _p_mult({(2,): 1}, {(3, 1): 2}) == {(3, 2, 1): 2}


class TestCharacterTable:
    def test_column_orthogonality(self):
        # sum over lam of chi^lam(rho) chi^lam(sigma) = delta_{rho,sigma} z_rho
        for n in range(13):
            parts, _, rows, _ = _table(n)
            columns = list(zip(*rows))
            for j, rho in enumerate(parts):
                for k in range(j, len(columns)):
                    dot = sum(a * b for a, b in zip(columns[j], columns[k]))
                    assert dot == (z_of(rho) if j == k else 0), (n, rho, parts[k])

    def test_cold_table_builds_each_degree_once(self):
        # _table(15) reads every lower degree, each built once and kept: the
        # cache holds all 16 degrees verify's budget admits
        _table.cache_clear()
        _table(15)
        info = _table.cache_info()
        assert info.misses == 16
        assert info.maxsize >= 16

    def test_one_table_per_degree(self):
        _table.cache_clear()
        assert check_products(6).ok
        info = _table.cache_info()
        assert info.misses == 7  # degrees 0 through 6
        assert info.hits > 0
