"""Equivalence and soundness sweeps.

Each sweep drives the fast path and the brute-force oracle through one loop,
``_sweep``, and checks the support with the filters users call: ``lr_bound``,
``partitions._dominates`` (``Partition.dominates``), ``sxp_lower_check``,
``sxp_upper_bound``, the empty n-core and ``plethysm_filter_check``, which
``containment_counts`` (``stats``) counts with too.  The CLI verify command
and the acceptance tests call these; a sweep stops at its first counterexample.
"""

from __future__ import annotations

from .oracle import oracle_plethysm, oracle_power_plethysm, oracle_product
from .partitions import Partition, _contains, _dominates, all_partitions
from .positivity import (
    lr_bound,
    plethysm_filter_check,
    sxp_lower_check,
    sxp_upper_bound,
    trivial_sign_multiplicity,
)
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
    for lam in {**fast._parts, **slow._parts}:
        a, b = fast._parts.get(lam, 0), slow._parts.get(lam, 0)
        if a != b:
            diff[str(list(lam))] = [a, b]
    return {"kind": "oracle mismatch", "diff_fast_vs_oracle": diff}


def _sweep(scope: str, cases, fast, oracle, check, names: tuple[str, ...]) -> SweepReport:
    """Count each case, compare fast(*case) with oracle(*case) and run
    check(*case, terms) on the fast expansion's own dict, in the kernel's order;
    the first counterexample, labelled with the case under ``names``, stops it."""
    report = SweepReport(scope)
    for case in cases:
        report.cases += 1
        expansion = fast(*case)
        bad = _expansion_mismatch(expansion, oracle(*case))
        if bad is None:
            bad = check(*case, expansion._parts)
        if bad is not None:
            for name, arg in zip(names, case):
                bad[name] = arg.to_list() if isinstance(arg, Partition) else arg
            report.counterexample = bad
            return report
    return report


# each check_* reads its fast path and oracle from this module when called, so
# a function rebound here (by a test, or by bench/spans.py) is the one that runs
def check_products(max_degree: int) -> SweepReport:
    """s_mu * s_nu vs oracle_product for all pairs with |mu|+|nu| <= max,
    plus the dominance and Minkowski-corner support bounds."""
    pairs = (
        (mu, nu)
        for a in range(max_degree + 1)
        for mu in all_partitions(a)
        for b in range(max_degree - a + 1)
        for nu in all_partitions(b)
    )
    return _sweep("lr", pairs, lambda mu, nu: multi_schur_product([mu, nu]),
                  oracle_product, _product_support_violation, ("mu", "nu"))


def _product_support_violation(mu: Partition, nu: Partition, terms: dict) -> dict | None:
    top, bottom = (mu + nu).parts, mu.union(nu).parts
    bound = lr_bound([mu, nu]).parts
    for lam in terms:
        if not (_dominates(top, lam) and _dominates(lam, bottom)):
            return {"kind": "dominance bound violated", "lam": list(lam)}
        if not _contains(bound, lam):
            return {"kind": "minkowski bound violated", "lam": list(lam)}
    return None


def check_sxp(max_degree: int) -> SweepReport:
    """sxp_plethysm vs the oracle's power-sum route for n <= 3 and result
    degree n|lam| <= max, plus the lower/upper bounds and the empty-core
    property of the support."""
    cases = (
        (n, lam)
        for n in range(1, SXP_MAX_N + 1)
        for size in range(max_degree // n + 1)
        for lam in all_partitions(size)
    )
    return _sweep("sxp", cases, sxp_plethysm, oracle_power_plethysm,
                  _sxp_support_violation, ("n", "lam"))


def _sxp_support_violation(n: int, lam: Partition, terms: dict) -> dict | None:
    upper = sxp_upper_bound(n, lam).intersection.parts
    for mu in terms:
        if not sxp_lower_check(lam.parts, mu):
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
    pairs = (
        (mu, nu)
        for a in range(max_degree + 1)
        for mu in all_partitions(a)
        for b in range(max_degree // max(a, 1) + 1)  # a * b <= max_degree
        for nu in all_partitions(b)
    )
    report = _sweep("plethysm", pairs, schur_plethysm, oracle_plethysm,
                    _plethysm_support_violation, ("mu", "nu"))
    if report.ok:
        report.cases += 1
        stats = plethysm_stats(Partition([1, 1]), Partition([4, 2, 2]))
        if stats != (231, 142, 40):
            report.counterexample = {
                "kind": "pinned statistic mismatch",
                "expected": [231, 142, 40],
                "got": list(stats),
            }
    return report


def _plethysm_support_violation(mu: Partition, nu: Partition, terms: dict) -> dict | None:
    # the containment guarantee concerns compositions with a genuine outer
    # factor; s_() o s_nu is the constant 1 and says nothing about nu
    if mu:
        for lam in terms:
            if not plethysm_filter_check(nu.parts, lam):
                return {"kind": "containment filter violated", "lam": list(lam)}
    degree = mu.size * nu.size
    row = (degree,) if degree else ()
    extracted = (terms.get(row, 0), terms.get((1,) * degree, 0))
    closed_form = trivial_sign_multiplicity(mu, nu)
    if closed_form != extracted:
        return {
            "kind": "trivial/sign closed form mismatch",
            "extracted": list(extracted),
            "closed_form": list(closed_form),
        }
    return None


def containment_counts(mu: Partition, nu: Partition) -> tuple[int, int]:
    """(number of partitions of |mu||nu|, how many pass plethysm_filter_check;
    s_() o s_nu = 1 passes, as in _plethysm_support_violation)."""
    candidates = all_partitions(mu.size * nu.size)
    passing = sum(1 for lam in candidates if not mu or plethysm_filter_check(nu.parts, lam.parts))
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
