"""Equivalence and soundness sweeps.

Each sweep drives the fast path and the brute-force oracle over a degree
range and checks them against each other, together with the pruning filters'
guarantees.  The CLI verify command and the acceptance test suite both call
these; a sweep stops at the first counterexample and reports it.
"""

from __future__ import annotations

from itertools import accumulate
from operator import lt

from .oracle import oracle_plethysm, oracle_power_plethysm, oracle_product
from .partitions import Partition, _contains, all_partitions
from .positivity import lr_bound, sxp_upper_bound, trivial_sign_multiplicity
from .quotients import _has_empty_core
from .schur import SchurExpansion, multi_schur_product, schur_plethysm, sxp_plethysm

SXP_MAX_N = 3
# entries of the p(d) x p(d) character table the oracle builds at the deepest
# degree d a sweep reaches: p(15)^2 = 30976 fits, p(16)^2 = 53361 does not
ORACLE_TABLE_BUDGET = 50_000


class SweepReport:
    def __init__(self, scope: str):
        self.scope, self.cases, self.counterexample = scope, 0, None

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
    # dominance on prefix sums, as Partition.dominates reads them
    top = list(accumulate((mu + nu).parts))
    bottom = list(accumulate(mu.union(nu).parts))
    bound = lr_bound([mu, nu]).parts
    # built item by item, the set walks the terms in support()'s order, so of
    # several violating terms the one named is the one support() meets first
    for lam in frozenset(iter(product._parts)):
        sums = list(accumulate(lam))
        if any(map(lt, top, sums)) or any(map(lt, sums, bottom)):
            return {"kind": "dominance bound violated", "lam": list(lam)}
        if not _contains(bound, lam):
            return {"kind": "minkowski bound violated", "lam": list(lam)}
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
    upper = sxp_upper_bound(n, lam).intersection.parts
    for mu in frozenset(iter(expansion._parts)):  # support()'s order
        if not _contains(mu, lam.parts):
            return {"kind": "lower bound violated", "mu": list(mu)}
        if not _contains(upper, mu):
            return {"kind": "upper bound violated", "mu": list(mu)}
        if not _has_empty_core(mu, n):
            return {"kind": "support has non-empty core", "mu": list(mu)}
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
        for lam in frozenset(iter(expansion._parts)):  # support()'s order
            if not _contains(lam, nu.parts):
                return {"kind": "containment filter violated", "lam": list(lam)}
    degree = mu.size * nu.size
    row = (degree,) if degree else ()
    expected = (expansion._parts.get(row, 0), expansion._parts.get((1,) * degree, 0))
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
    passing = sum(1 for lam in candidates if not mu or _contains(lam.parts, nu.parts))
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
    # built per call, so a sweep wrapped on the module (as bench/spans.py
    # wraps them) is the one that runs
    sweeps = {
        "lr": (check_products,),
        "sxp": (check_sxp,),
        "plethysm": (check_plethysm,),
        "all": (check_products, check_sxp, check_plethysm),
    }
    if scope not in sweeps:
        raise ValueError(f"unknown scope {scope!r}")
    return [sweep(max_degree) for sweep in sweeps[scope]]
