"""Equivalence and soundness sweeps.

Each sweep drives the fast path and the brute-force oracle over a degree
range and checks them against each other, together with the pruning filters'
guarantees.  The CLI verify command and the acceptance test suite both call
these; a sweep stops at the first counterexample and reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .oracle import oracle_plethysm, oracle_power_plethysm, oracle_product
from .partitions import Partition, all_partitions
from .positivity import (
    lr_bound,
    plethysm_filter_check,
    sxp_lower_check,
    sxp_upper_bound,
    trivial_sign_multiplicity,
)
from .quotients import decompose
from .schur import SchurExpansion, multi_schur_product, schur_plethysm, sxp_plethysm

SXP_MAX_N = 3
# entries of the p(d) x p(d) character table the oracle builds at the deepest
# degree d a sweep reaches: p(15)^2 = 30976 fits, p(16)^2 = 53361 does not
ORACLE_TABLE_BUDGET = 50_000


@dataclass
class SweepReport:
    scope: str
    cases: int = 0
    counterexample: dict | None = field(default=None)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _expansion_mismatch(fast: SchurExpansion, slow: SchurExpansion) -> dict | None:
    if fast == slow:
        return None
    diff = {}
    for lam in fast.support() | slow.support():
        a, b = fast.coefficient(lam), slow.coefficient(lam)
        if a != b:
            diff[str(lam.to_list())] = [a, b]
    return {"kind": "oracle mismatch", "diff_fast_vs_oracle": diff}


def check_products(max_degree: int) -> SweepReport:
    """s_mu * s_nu vs oracle_product for all pairs with |mu|+|nu| <= max,
    plus the dominance and Minkowski-corner support bounds."""
    report = SweepReport("lr")
    for a in range(max_degree + 1):
        for mu in all_partitions(a):
            for b in range(max_degree - a + 1):
                for nu in all_partitions(b):
                    report.cases += 1
                    fast = multi_schur_product([mu, nu])
                    bad = _expansion_mismatch(fast, oracle_product(mu, nu))
                    if bad is None:
                        bad = _product_support_violation(mu, nu, fast)
                    if bad is not None:
                        bad["mu"], bad["nu"] = mu.to_list(), nu.to_list()
                        report.counterexample = bad
                        return report
    return report


def _product_support_violation(
    mu: Partition, nu: Partition, product: SchurExpansion
) -> dict | None:
    bound = lr_bound([mu, nu])
    top, bottom = mu + nu, mu.union(nu)
    for lam in product.support():
        if not top.dominates(lam) or not lam.dominates(bottom):
            return {"kind": "dominance bound violated", "lam": lam.to_list()}
        if not bound.contains(lam):
            return {"kind": "minkowski bound violated", "lam": lam.to_list()}
    return None


def check_sxp(max_degree: int) -> SweepReport:
    """sxp_plethysm vs the oracle's power-sum route for n <= 3 and result
    degree n|lam| <= max, plus the lower/upper bounds and the empty-core
    property of the support."""
    report = SweepReport("sxp")
    for n in range(1, SXP_MAX_N + 1):
        for size in range(max_degree // n + 1):
            for lam in all_partitions(size):
                report.cases += 1
                fast = sxp_plethysm(n, lam)
                bad = _expansion_mismatch(fast, oracle_power_plethysm(n, lam))
                if bad is None:
                    bad = _sxp_support_violation(n, lam, fast)
                if bad is not None:
                    bad["n"], bad["lam"] = n, lam.to_list()
                    report.counterexample = bad
                    return report
    return report


def _sxp_support_violation(
    n: int, lam: Partition, expansion: SchurExpansion
) -> dict | None:
    upper = sxp_upper_bound(n, lam).intersection
    for mu in expansion.support():
        if not sxp_lower_check(lam, mu):
            return {"kind": "lower bound violated", "mu": mu.to_list()}
        if not upper.contains(mu):
            return {"kind": "upper bound violated", "mu": mu.to_list()}
        if decompose(mu, n).core:
            return {"kind": "support has non-empty core", "mu": mu.to_list()}
    return None


def check_plethysm(max_degree: int) -> SweepReport:
    """schur_plethysm vs oracle_plethysm for |mu|*|nu| <= max, the diagram
    containment filter on the support, and the closed forms for the extreme
    row/column coefficients; then, regardless of max, the known
    231 / 142 / 40 pruning statistic for s_{1,1} o s_{4,2,2}."""
    report = SweepReport("plethysm")
    pairs = [
        (mu, nu)
        for a in range(max_degree + 1)
        for mu in all_partitions(a)
        for b in range(max_degree + 1)
        for nu in all_partitions(b)
        if a * b <= max_degree
    ]
    for mu, nu in pairs:
        report.cases += 1
        fast = schur_plethysm(mu, nu)
        bad = _expansion_mismatch(fast, oracle_plethysm(mu, nu))
        if bad is None:
            bad = _plethysm_support_violation(mu, nu, fast)
        if bad is not None:
            bad["mu"], bad["nu"] = mu.to_list(), nu.to_list()
            report.counterexample = bad
            return report
    report.cases += 1
    stats = plethysm_stats(Partition([1, 1]), Partition([4, 2, 2]))
    if stats != (231, 142, 40):
        report.counterexample = {
            "kind": "pinned statistic mismatch",
            "expected": [231, 142, 40],
            "got": list(stats),
        }
    return report


def _plethysm_support_violation(
    mu: Partition, nu: Partition, expansion: SchurExpansion
) -> dict | None:
    # the containment guarantee concerns compositions with a genuine outer
    # factor; s_() o s_nu is the constant 1 and says nothing about nu
    if mu:
        for lam in expansion.support():
            if not plethysm_filter_check(nu, lam):
                return {"kind": "containment filter violated", "lam": lam.to_list()}
    degree = mu.size * nu.size
    row = Partition([degree]) if degree else Partition()
    column = Partition([1] * degree)
    expected = (expansion.coefficient(row), expansion.coefficient(column))
    if trivial_sign_multiplicity(mu, nu) != expected:
        return {
            "kind": "trivial/sign closed form mismatch",
            "extracted": list(expected),
            "closed_form": list(trivial_sign_multiplicity(mu, nu)),
        }
    return None


def containment_counts(mu: Partition, nu: Partition) -> tuple[int, int]:
    """(number of partitions of |mu||nu|, how many pass the containment filter;
    s_() o s_nu = 1 passes, as in _plethysm_support_violation)."""
    candidates = all_partitions(mu.size * nu.size)
    passing = sum(1 for lam in candidates if not mu or plethysm_filter_check(nu, lam))
    return (len(candidates), passing)


def plethysm_stats(mu: Partition, nu: Partition) -> tuple[int, int, int]:
    """containment_counts plus the size of the actual support of s_mu o s_nu."""
    return (*containment_counts(mu, nu), len(schur_plethysm(mu, nu)))


def run_scope(scope: str, max_degree: int) -> list[SweepReport]:
    """The sweeps of one scope up to max_degree.  Every scope reaches degree
    max_degree itself (products with |mu| + |nu| = max, sxp with n = 1,
    plethysm with |mu| = 1), so before any sweep starts the first degree
    whose oracle table is over the budget raises ValueError; p is increasing,
    so no degree past it is enumerated."""
    for d in range(max_degree + 1):
        p = len(all_partitions(d))
        if p * p > ORACLE_TABLE_BUDGET:
            raise ValueError(
                f"verify --max {max_degree} needs the oracle's character table at "
                f"degree {d}: p({d}) = {p}, {p * p} entries, over the budget of "
                f"{ORACLE_TABLE_BUDGET}"
            )
    if scope == "lr":
        return [check_products(max_degree)]
    if scope == "sxp":
        return [check_sxp(max_degree)]
    if scope == "plethysm":
        return [check_plethysm(max_degree)]
    if scope == "all":
        return [
            check_products(max_degree),
            check_sxp(max_degree),
            check_plethysm(max_degree),
        ]
    raise ValueError(f"unknown scope {scope!r}")
