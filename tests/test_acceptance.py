"""End-to-end acceptance suite.

Every advertised guarantee of the package is pinned here at full strength,
one test per criterion, each printing a single PASS or FAIL line (run with
``pytest -s`` to see them).  All comparisons are exact.
"""

import functools
import time

import pytest

from schurkit import (
    Partition,
    Point,
    all_partitions,
    character,
    decompose,
    ideal_complement,
    lr_bound,
    minkowski_sum,
    outer_corners,
    reconstruct,
    schur_plethysm,
    size_row_bound,
    sxp_plethysm,
    sxp_upper_bound,
    z_of,
)
from schurkit.schur import _pair_product, _power_plethysm, multi_schur_product
from schurkit.verification import (
    _plethysm_support_violation,
    _product_support_violation,
    _sxp_support_violation,
    check_plethysm,
    check_products,
    check_sxp,
    plethysm_stats,
)

P = Partition

SXP_2_32_TERMS = {
    P([6, 4]): 1,
    P([6, 3, 1]): -1,
    P([6, 2, 2]): 1,
    P([5, 5]): -1,
    P([5, 3, 1, 1]): 1,
    P([5, 2, 2, 1]): -1,
    P([4, 4, 2]): 1,
    P([4, 4, 1, 1]): -1,
    P([4, 3, 3]): -1,
    P([4, 2, 2, 2]): 1,
    P([3, 3, 3, 1]): 1,
    P([3, 3, 2, 2]): -1,
}


def _clear_caches():
    sxp_plethysm.cache_clear()
    _power_plethysm.cache_clear()
    _pair_product.cache_clear()


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {name}: FAIL")
                raise
            print(f"\n[acceptance] {name}: PASS")

        return wrapper

    return deco


@criterion("1 sxp expansion p_2 o s_{3,2}, 12 signed terms, exact")
def test_criterion_1_sxp_expansion_exact():
    _clear_caches()
    started = time.perf_counter()
    expansion = sxp_plethysm(2, P([3, 2]))
    elapsed = time.perf_counter() - started
    assert dict(expansion.terms) == SXP_2_32_TERMS
    assert expansion.degree == 10
    assert elapsed < 1.0, f"took {elapsed:.3f}s, expected < 1s"


@criterion("2 minkowski corner bound, 9 points and theta = (5,4,2,2,1,1)")
def test_criterion_2_minkowski_bound_worked_example():
    factors = [P([3, 2]), P([1, 1]), P([1, 1])]
    expected_sum = {
        Point(0, 6), Point(1, 4), Point(2, 2), Point(2, 5), Point(3, 3),
        Point(4, 1), Point(3, 4), Point(4, 2), Point(5, 0),
    }
    corner_sum = outer_corners(factors[0])
    for f in factors[1:]:
        corner_sum = minkowski_sum(corner_sum, outer_corners(f))
    assert corner_sum == expected_sum
    assert lr_bound(factors) == P([5, 4, 2, 2, 1, 1])
    best = min(
        _timed(lambda: lr_bound(factors)) for _ in range(5)
    )
    assert best < 0.001, f"took {best * 1000:.3f}ms, expected < 1ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@criterion("3 ideal complement of {(1,3),(0,4),(2,0)} = (2,2,2,1)")
def test_criterion_3_ideal_complement_intersection():
    got = ideal_complement({Point(1, 3), Point(0, 4), Point(2, 0)})
    assert got == P([2, 2, 2, 1])


@criterion("4 naive row bound and refined intersection for n=2, lam=(3,2)")
def test_criterion_4_upper_bound_pipeline():
    assert size_row_bound(10) == P([10, 5, 3, 2, 2, 1, 1, 1, 1, 1])
    bp = sxp_upper_bound(2, P([3, 2]))
    assert bp.intersection == P([8, 5, 3, 2, 1, 1, 1])


@criterion("5 pruning statistic 231 -> 142 -> 40, under 60s")
def test_criterion_5_final_remarks_statistic():
    _clear_caches()
    started = time.perf_counter()
    stats = plethysm_stats(P([1, 1]), P([4, 2, 2]))
    elapsed = time.perf_counter() - started
    assert stats == (231, 142, 40)
    assert elapsed < 60.0, f"took {elapsed:.1f}s, expected < 60s"


@criterion("6 extreme coefficients <s_{n.lam}> = 1 and <s_{union^n lam}> = (-1)^(|lam|(n-1))")
def test_criterion_6_extreme_coefficient_closed_forms():
    for n in (2, 3):
        for size in range(5):
            for lam in all_partitions(size):
                expansion = sxp_plethysm(n, lam)
                top = P()
                bottom = P()
                for _ in range(n):
                    top = top + lam
                    bottom = bottom.union(lam)
                assert expansion.coefficient(top) == 1
                assert expansion.coefficient(bottom) == (-1) ** (lam.size * (n - 1))


@pytest.fixture(scope="session")
def sweep_reports():
    started = time.perf_counter()
    reports = {
        "lr": check_products(13),
        "sxp": check_sxp(15),
        "plethysm": check_plethysm(12),
    }
    reports["elapsed"] = time.perf_counter() - started
    return reports


@criterion("7 oracle equivalence: products <= 13, sxp degree <= 15 (n <= 3), plethysm <= 12")
def test_criterion_7_oracle_equivalence(sweep_reports):
    for scope in ("lr", "sxp", "plethysm"):
        r = sweep_reports[scope]
        assert r.ok, f"{scope}: {r.counterexample}"
        assert r.cases > 0
    assert sweep_reports["elapsed"] < 600, f"sweep took {sweep_reports['elapsed']:.0f}s"


@criterion("8 filter soundness: zero counterexamples across all sweeps")
def test_criterion_8_filter_soundness(sweep_reports):
    # the sweeps interleave the soundness checks with the equivalence
    # comparison, so a clean pass means zero counterexamples to any of the
    # support bounds or to the trivial/sign closed forms
    for scope in ("lr", "sxp", "plethysm"):
        r = sweep_reports[scope]
        assert r.ok, f"{scope}: {r.counterexample}"


# the sweeps past the oracle: (cases, fast path, support check, case count)
PAST_ORACLE = {
    "lr": (  # |mu| + |nu| <= 16
        lambda: (
            (mu, nu) for a in range(17) for mu in all_partitions(a)
            for b in range(17 - a) for nu in all_partitions(b)
        ),
        lambda mu, nu: multi_schur_product([mu, nu]),
        _product_support_violation,
        17345,
    ),
    "sxp": (  # n >= 2, |lam| >= 1, n|lam| <= 26
        lambda: (
            (n, lam) for n in range(2, 27)
            for size in range(1, 26 // n + 1) for lam in all_partitions(size)
        ),
        sxp_plethysm,
        _sxp_support_violation,
        536,
    ),
    "plethysm": (  # |mu|, |nu| >= 1, |mu||nu| <= 13
        lambda: (
            (mu, nu) for a in range(1, 14) for mu in all_partitions(a)
            for b in range(1, 13 // a + 1) for nu in all_partitions(b)
        ),
        schur_plethysm,
        _plethysm_support_violation,
        890,
    ),
}


@pytest.mark.parametrize("scope", PAST_ORACLE)
@criterion("8 soundness past the oracle: products <= 16, sxp <= 26 (n >= 2), plethysm <= 13")
def test_criterion_8_filter_soundness_past_the_oracle(scope):
    # the oracle stops at degree 15, the paper's filters need none: run the
    # fast path and the sweep's own support check on degrees beyond it
    cases, fast, check, count = PAST_ORACLE[scope]
    checked = 0
    for case in cases():
        bad = check(*case, fast(*case)._parts)
        assert bad is None, (scope, case, bad)
        checked += 1
    assert checked == count


@criterion("9 structural round trips: abacus bijection, size formula, corners, orthogonality")
def test_criterion_9_structural_round_trips():
    # core/quotient bijection
    for n in range(1, 5):
        for size in range(15):
            for mu in all_partitions(size):
                d = decompose(mu, n)
                assert reconstruct(n, d.core, d.quotient) == mu

    # size formula
    for n in range(2, 6):
        for size in range(17):
            for mu in all_partitions(size):
                d = decompose(mu, n)
                assert mu.size == d.core.size + n * sum(q.size for q in d.quotient)

    # outer-corner / ideal-complement round trip
    for size in range(13):
        for lam in all_partitions(size):
            assert ideal_complement(outer_corners(lam)) == lam

    # character orthogonality
    from fractions import Fraction

    for n in range(1, 10):
        ps = all_partitions(n)
        chi = {(mu, rho): character(mu, rho) for mu in ps for rho in ps}
        for i, mu in enumerate(ps):
            for nu in ps[i:]:
                total = sum(
                    (Fraction(chi[mu, rho] * chi[nu, rho], z_of(rho)) for rho in ps),
                    Fraction(0),
                )
                assert total == (1 if mu == nu else 0)
