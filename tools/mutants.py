"""Mutation checks: each mutant is a one-place fault that named tests must catch.

Every row of MUTANTS is (file under src/schurkit/, exact old text, new text,
target tests).  Each old text must occur exactly once in its file, so a
refactor that moves the code fails here rather than skipping the mutant.

The script copies src/, tests/, README.md and pyproject.toml into a temporary
directory, so the copy runs under the repository's pytest settings and the
README's tests can be targets.  It runs the targets there once unmutated; they
must pass.  Then, one mutant at a time, it writes the edit into the copy, runs
``python -m pytest -x -q <targets>`` in a subprocess under TIMEOUT_S, and puts
the file back.  Each run leaves out the cache provider, and pyproject.toml's
addopts leave out the hypothesis plugin, which no test uses: loading that
plugin took most of each run's time where it is installed.  A mutant is
killed when that run fails or times out; one whose targets pass survived,
which is a finding about the tests: strengthen them and keep the mutant.

Run from the repository root, with pytest installed:

    python tools/mutants.py

Exits 1 if an anchor is missing or repeated, the unmutated run fails, or any
mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

SCHUR = "tests/test_schur.py"
QUOT = "tests/test_quotients.py"
POS = "tests/test_positivity.py"
PART = "tests/test_partitions.py"
ORACLE = "tests/test_oracle.py"
CLI = "tests/test_cli.py"
INJECTED = f"{CLI}::TestInjectedViolations"
BYTES = "tests/test_same_bytes.py"
README = "tests/test_readme.py"

MUTANTS = [
    # --- schur.py: the LR walk and the SXP fold
    ("schur.py",  # lattice cap plus 1
     "            if slack < hi:\n                hi = slack\n",
     "            if slack + 1 < hi:\n                hi = slack + 1\n",
     [f"{SCHUR}::TestLRCoefficient"]),
    ("schur.py",  # the row above caps a row one cell too loosely
     "hi = above - old  #",
     "hi = above - old + 1  #",
     [f"{SCHUR}::TestLRCoefficient"]),
    ("schur.py",  # outer cap removed
     "if outer is not None and outer[r] - old < hi:",
     "if False:",
     [f"{SCHUR}::TestLRWalkProperties"]),
    ("schur.py",  # lattice bookkeeping: the row's letter-k cells not counted
     "gained = prev[r]",
     "gained = 0",
     [f"{SCHUR}::TestLRCoefficient"]),
    ("schur.py",  # the one-cell scan lets a row as long as the row above take it
     "if above > old and (",
     "if above >= old and (",
     [f"{SCHUR}::TestLRCoefficient"]),
    ("schur.py",  # the one-cell scan fills a row already at its outer bound
     "or outer[r] > old):",
     "or outer[r] >= old):",
     [f"{SCHUR}::TestLRWalkProperties"]),
    ("schur.py",  # the one-cell scan ignores the outer bound
     " and (outer is None or outer[r] > old):",
     ":",
     [f"{SCHUR}::TestLRWalkProperties"]),
    ("schur.py",  # the last letter's scan counts each shape once
     "                    leaves[lam] = count(lam, 0) + 1\n                else:",
     "                    leaves[lam] = 1\n                else:",
     [f"{SCHUR}::TestLRCoefficient"]),
    ("schur.py",  # grow reaches itself through its closure cell: a cycle, same answers
     "def grow(k, r, left, slack, above, prev, strip, grow)",
     "def grow(k, r, left, slack, above, prev, strip, _)",
     [f"{SCHUR}::TestLRWalkProperties::test_walk_leaves_no_cyclic_garbage"]),
    ("schur.py",  # containment pre-check removed
     "    if outer is not None and not _contains(outer, inner):\n        return {}\n",
     "",
     [f"{SCHUR}::TestLRWalkProperties"]),
    ("schur.py",  # the fold reads every shape it reached, not lam alone
     "return current.get(lam, 0)",
     "return sum(current.values())",
     [f"{SCHUR}::TestLRCoefficient::test_size_mismatch"]),
    ("schur.py",  # z_of drops its run factor
     "z *= part * run",
     "z *= part",
     [f"{SCHUR}::TestZ"]),
    ("schur.py",  # rim-hook signs dropped in the character recursion
     "total += sign * _character_rec(sub, rest, memo)",
     "total += _character_rec(sub, rest, memo)",
     [f"{SCHUR}::TestCharacter"]),
    ("schur.py",  # n = 1 shortcut removed
     "if n == 1 or not lam:  # p_1 o s_lam = s_lam, and p_n o s_() = s_()",
     "if not lam:",
     [f"{SCHUR}::TestSxpPlethysm::test_identity_exponent"]),
    ("schur.py",  # quotient components inside lam minus its last row
     "_quotient_walk(n, lam.size, lam.parts)",
     "_quotient_walk(n, lam.size, lam.parts[:-1])",
     [f"{SCHUR}::TestSxpPlethysm"]),
    ("schur.py",  # terms of 14+ rows change sign past degree 15: no k <= 13 sees them
     "terms[_partition_from_beta(beads)] = coeffs[factors] * _abacus_sign(beads, n)",
     "mu = _partition_from_beta(beads); terms[mu] = coeffs[factors]"
     " * _abacus_sign(beads, n) * (-1 if len(mu) > 13 and n * lam.size > 15 else 1)",
     [f"{SCHUR}::TestSxpPastOracle::test_every_coefficient_at_a_random_point"]),
    ("schur.py",  # one unit more on each shape with 9+ rows and a first row of
     # 9+: degree 17 or more, past every oracle sweep; the principal
     # specialization sets at most 8 variables and omega maps the set to itself
     "            terms[_conjugate(lam) if flip else lam] = coeff\n",
     "            terms[_conjugate(lam) if flip else lam] = coeff + (len(lam) > 8 < lam[0])\n",
     [f"{SCHUR}::TestSchurPlethysmPastOracle::test_every_coefficient_at_a_random_point"]),
    ("schur.py",  # the flip rule inverted: a wide nu is walked as its conjugate,
     # the same answers, so only the rule test sees it
     "flip = nu[0] < len(nu)",
     "flip = nu[0] > len(nu)",
     [f"{SCHUR}::TestSchurPlethysm::test_tall_nu_is_walked_as_its_conjugate"]),
    ("schur.py",  # the flip keeps mu whatever the parity of |nu|
     "nu.size % 2 == 0",
     "True",
     [f"{SCHUR}::TestSchurPlethysm::test_flip_matches_the_unflipped_sum"]),
    ("schur.py",  # the flipped answer's keys left unconjugated
     "terms[_conjugate(lam) if flip else lam] = coeff",
     "terms[lam] = coeff",
     [f"{SCHUR}::TestSchurPlethysm::test_flip_matches_the_unflipped_sum"]),
    ("schur.py",  # the remainder error names the partition the flipped sum ran on
     "            lam = _conjugate(lam) if flip else lam\n",
     "",
     [f"{SCHUR}::TestSchurPlethysm::test_remainder_names_the_output_partition"]),
    ("schur.py",  # the identity narrowed to nu = (): s_mu o s_1 runs the rho sum,
     # the same answers, so only the no-sum check sees it
     "if nu.size <= 1:",
     "if nu.size < 1:",
     [f"{SCHUR}::TestSchurPlethysm::test_inner_factor_of_size_at_most_one"]),
    ("schur.py",  # s_mu o 1 read as 1 for every mu, also with two or more rows
     "{(): 1} if len(mu) <= 1 else {}",
     "{(): 1}",
     [f"{SCHUR}::TestSchurPlethysm::test_inner_factor_of_size_at_most_one"]),
    ("schur.py",  # |chi| for chi in the plethysm weights
     "out.append((rho.parts, chi * (scale // z_of(rho))))",
     "out.append((rho.parts, abs(chi) * (scale // z_of(rho))))",
     [f"{SCHUR}::TestSchurPlethysm"]),
    ("schur.py",  # remainder check removed
     "        if rem:\n            lam = _conjugate(lam) if flip else lam\n",
     "        if False:\n            lam = _conjugate(lam) if flip else lam\n",
     [f"{SCHUR}::TestSchurPlethysm::test_remainder_raises"]),
    ("schur.py",  # to_json_obj in ascending order
     "for lam in sorted(parts, reverse=True)\n",
     "for lam in sorted(parts)\n",
     [f"{SCHUR}::TestExpansionTypes"]),
    ("schur.py",  # the factor of more rows walked as the content, the same
     # answers, so only the orientation test sees it
     "if len(nu) <= len(mu) else",
     "if len(nu) >= len(mu) else",
     [f"{SCHUR}::TestSchurProduct::test_pair_product_walks_the_factor_of_fewer_rows_as_content"]),
    ("schur.py",  # one pairing per n-quotient, not per multiset of components:
     # the same answers, so only the call count sees it
     "if factors not in coeffs:",
     "if True:",
     [f"{SCHUR}::TestSxpPlethysm::test_one_pairing_per_multiset_of_components"]),
    ("schur.py",  # empty factors folded too: each one a walk with no content
     "fs = sorted((f for f in factors if f), key=sum, reverse=True)",
     "fs = sorted(factors, key=sum, reverse=True)",
     [f"{SCHUR}::TestSchurPlethysm::test_no_walk_with_an_empty_factor"]),
    ("schur.py",  # each p_rho piece folded from the unit: a walk with no inner
     "out = sxp_plethysm(rho[0], lam)._parts if rho else {(): 1}\n    for k in rho[1:]:",
     "out = {(): 1}\n    for k in rho:",
     [f"{SCHUR}::TestSchurPlethysm::test_no_walk_with_an_empty_factor"]),
    ("schur.py",  # one-term sides ignore their coefficients
     "if a == b == 1:",
     "if True:",
     [f"{SCHUR}::TestSchurProduct::test_scaled_or_longer_sides_give_the_scaled_sum"]),
    ("schur.py",  # coefficient defaults to 1 off the support
     "return self._parts.get(lam.parts, 0)",
     "return self._parts.get(lam.parts, 1)",
     [f"{SCHUR}::TestExpansionTypes"]),
    ("schur.py",  # the character recursion's base case reads 0
     "    if not rho:\n        return 1\n",
     "    if not rho:\n        return 0\n",
     [f"{SCHUR}::TestCharacter"]),
    ("schur.py",  # sxp_plethysm accepts an exponent below 1
     "    if n < 1:\n        raise ValueError(\"plethysm exponent n must be >= 1\")\n    if n == 1",
     "    if False:\n        raise ValueError(\"plethysm exponent n must be >= 1\")\n    if n == 1",
     [f"{SCHUR}::TestSxpPlethysm::test_bad_exponent",
      f"{CLI}::TestExpand::test_sxp_exponent_below_one_exit_2"]),
    ("schur.py",  # repr of the zero expansion has an empty body
     "{body or '0'}",
     "{body}",
     [f"{SCHUR}::TestExpansionTypes::test_repr_lists_sorted_terms"]),
    # --- quotients.py: the abacus
    ("quotients.py",  # rim-hook height parity flipped
     "1 if (j - i) % 2 else -1",
     "-1 if (j - i) % 2 else 1",
     [f"{SCHUR}::TestCharacter::test_table_and_character_match_lr_power_sums"]),
    ("quotients.py",  # abacus sign parity flipped
     "return -1 if inversions % 2 else 1",
     "return 1 if inversions % 2 else -1",
     [f"{QUOT}::TestSxpSign"]),
    ("quotients.py",  # children pushed in table order: they pop reversed
     "for q, pos in reversed(table[i][size]):",
     "for q, pos in table[i][size]:",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # the last two runners read as one: n-1 components
     "if i < n - 1:",
     "if i < n - 2:",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # containment floor skipped
     "if all(map(ge, b, floor)):",
     "if True:",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # containment floor one too high
     "floor = [p + n * c - 1 - k for",
     "floor = [p + n * c - k for",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # containment floor one too low
     "floor = [p + n * c - 1 - k for",
     "floor = [p + n * c - 2 - k for",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # leaf beads left unsorted
     "            b.sort(reverse=True)\n",
     "",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # a wrong runner shift in the walk's table: runner i's
     # entries get the beads of runner n-1-i
     "for s in shapes] for i in range(n)]",
     "for s in shapes] for i in range(n - 1, -1, -1)]",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # the shapes placed on runners 0 .. n-2 only
     "for s in shapes] for i in range(n)]",
     "for s in shapes] for i in range(n - 1)]",
     [f"{QUOT}::TestQuotientWalk"]),
    ("quotients.py",  # empty-core test loosened to two runner lengths
     "return len({len(r) for r in _runners(mu, n)[1]}) == 1",
     "return len({len(r) for r in _runners(mu, n)[1]}) <= 2",
     [f"{QUOT}::TestAbacusTuples"]),
    ("quotients.py",  # the runner split reads every level one too high
     "levels[b % n].append(b // n)",
     "levels[b % n].append(b // n + 1)",
     [f"{QUOT}::TestDecompose"]),
    ("quotients.py",  # decompose places the core one bead short per runner
     "_place(n, [len(r) for r in levels], [()] * n)",
     "_place(n, [len(r) - 1 for r in levels], [()] * n)",
     [f"{QUOT}::TestDecompose"]),
    ("quotients.py",  # reconstruct lifts the components with no spare beads
     "extra = max((len(q) for q in quotient), default=0)",
     "extra = 0",
     [f"{QUOT}::TestReconstruct"]),
    ("quotients.py",  # a zero part kept when reading beads
     "takewhile(bool, map(sub,",
     "takewhile((-1).__lt__, map(sub,",
     [f"{QUOT}::TestPartitionFromBeta"]),
    ("quotients.py",  # the decode does not stop at the zeros
     "list(takewhile(bool, map(sub, beta, range(len(beta) - 1, -1, -1))))",
     "list(map(sub, beta, range(len(beta) - 1, -1, -1)))",
     [f"{QUOT}::TestPartitionFromBeta"]),
    ("quotients.py",  # the sign stops one bead early, at the first part of 1
     "if b == m - 1 - i:",
     "if b <= m - i:",
     [f"{QUOT}::TestAbacusTuples"]),
    ("quotients.py",  # decompose accepts a modulus below 1
     "    if n < 1:\n        raise ValueError(\"modulus n must be >= 1\")\n    beta, ",
     "    if False:\n        raise ValueError(\"modulus n must be >= 1\")\n    beta, ",
     [f"{QUOT}::TestDecompose::test_modulus_below_one"]),
    ("quotients.py",  # reconstruct accepts a modulus below 1
     "    if n < 1:\n        raise ValueError(\"modulus n must be >= 1\")\n    if len(",
     "    if False:\n        raise ValueError(\"modulus n must be >= 1\")\n    if len(",
     [f"{QUOT}::TestDecompose::test_modulus_below_one"]),
    ("quotients.py",  # the beta-set's padding stops one bead short
     "*range(m - 1 - len(mu), -1, -1)]",
     "*range(m - 1 - len(mu), 0, -1)]",
     [f"{QUOT}::TestBetaSet"]),
    ("quotients.py",  # reconstruct accepts a core with a removable hook
     "if _rim_hooks(core.parts, n):",
     "if False:",
     [f"{QUOT}::TestReconstruct"]),
    # --- positivity.py: the paper's filters
    ("positivity.py",  # lr_bound takes max, not min
     "rows = tuple([min(map(add,",
     "rows = tuple([max(map(add,",
     [f"{POS}::TestLrBound"]),
    ("positivity.py",  # row caps divide by r + 1
     "cap = (total - tail) // r",
     "cap = (total - tail) // (r + 1)",
     [f"{POS}::TestSxpBounds"]),
    ("positivity.py",  # intersection takes max, not min
     "min(a, b) for a, b in zip(xi1, xi2)",
     "max(a, b) for a, b in zip(xi1, xi2)",
     [f"{POS}::TestSxpBounds"]),
    ("positivity.py",  # single-column test nu[0] <= 1 -> nu[0] < 1
     "if nu[0] <= 1:",
     "if nu[0] < 1:",
     [f"{POS}::TestTrivialSign"]),
    ("positivity.py",  # full row needs only one single-row factor
     "1 if len(mu) <= 1 and len(nu) <= 1 else 0",
     "1 if len(mu) <= 1 or len(nu) <= 1 else 0",
     [f"{POS}::TestTrivialSign"]),
    ("positivity.py",  # sxp_lower_check refuses mu with 4+ rows
     "return _contains(mu, lam)",
     "return _contains(mu, lam) and len(mu) < 4",
     [f"{POS}::TestSxpBounds"]),
    ("positivity.py",  # plethysm_filter_check refuses lam with 5+ rows
     "return _contains(lam, nu)",
     "return _contains(lam, nu) and len(lam) < 5",
     [f"{POS}::TestPlethysmFilter"]),
    ("positivity.py",  # corner_sum of no factors
     "    if not mus:\n        raise ValueError(\"corner_sum",
     "    if False:\n        raise ValueError(\"corner_sum",
     [f"{POS}::TestLrBound::test_empty_list_rejected"]),
    ("positivity.py",  # sxp_upper_bound accepts an exponent below 1
     "    if n < 1:\n        raise ValueError(\"plethysm exponent n must be >= 1\")\n    total",
     "    if False:\n        raise ValueError(\"plethysm exponent n must be >= 1\")\n    total",
     [f"{POS}::TestSxpBounds::test_exponent_below_one",
      f"{CLI}::TestExpand::test_sxp_exponent_below_one_exit_2"]),
    ("positivity.py",  # the candidate walk accepts an exponent below 1
     "    if n < 1:\n        raise ValueError(\"plethysm exponent n must be >= 1\")\n    if n == 1",
     "    if False:\n        raise ValueError(\"plethysm exponent n must be >= 1\")\n    if n == 1",
     [f"{POS}::TestSxpBounds::test_exponent_below_one"]),
    ("positivity.py",  # the candidate walk loses its n = 1 answer
     "if n == 1 or not lam:",
     "if not lam:",
     [f"{POS}::TestEnumerateCandidates::test_identity_exponent"]),
    ("positivity.py",  # candidates left unsorted
     "return sorted([_partition_from_beta(beads) for _, beads in walk], reverse=True)",
     "return [_partition_from_beta(beads) for _, beads in walk]",
     [f"{POS}::TestEnumerateCandidates"]),
    # --- partitions.py
    ("partitions.py",  # a negative row index reads from the end
     "if row < 0:",
     "if False:",
     [f"{PART}::TestConstruction::test_size_and_indexing"]),
    ("partitions.py",  # dominance skips the first row
     "return not any(map(lt, accumulate(upper), accumulate(lower)))",
     "return not any(map(lt, list(accumulate(upper))[1:], list(accumulate(lower))[1:]))",
     [f"{PART}::TestDominance"]),
    ("partitions.py",  # containment lets inner have one row too many
     "return len(inner) <= len(outer) and",
     "return len(inner) <= len(outer) + 1 and",
     [f"{PART}::TestContains"]),
    ("partitions.py",  # conjugate drops its longest column
     "return tuple(cols)",
     "return tuple(cols[1:])",
     [f"{PART}::TestConjugate"]),
    ("partitions.py",  # partitions_of refills one cell short
     "q, r = divmod(ones + 1, cap)",
     "q, r = divmod(ones, cap)",
     [f"{PART}::TestGenerators"]),
    ("partitions.py",  # ideal complement reads only generators strictly above
     "if p.r <= r) for r in range(first_empty_row)",
     "if p.r < r) for r in range(first_empty_row)",
     [f"{PART}::TestIdealComplement"]),
    ("partitions.py",  # union keeps the merged parts unsorted
     "tuple(sorted(self._parts + other._parts, reverse=True))",
     "self._parts + other._parts",
     [f"{PART}::TestSumUnion::test_match_definitions_in_both_orders"]),
    ("partitions.py",  # the part-wise sum drops the longer factor's tail
     "(*map(add, a, b), *a[len(b):])",
     "tuple(map(add, a, b))",
     [f"{PART}::TestSumUnion::test_match_definitions_in_both_orders"]),
    # --- oracle.py
    ("oracle.py",  # p_n o p_rho keeps the parts unstretched
     "tuple([n * part for part in rho])",
     "tuple([part for part in rho])",
     [f"{ORACLE}::TestPowerBasisAlgebra"]),
    ("oracle.py",  # class sizes off: n!/z_rho replaced by n!
     "sizes = tuple([factorial(n) // z_of(rho) for rho in parts])",
     "sizes = tuple([factorial(n) for rho in parts])",
     [f"{ORACLE}::TestOracleProduct"]),
    ("oracle.py",  # the oracle's p_n o s_lam accepts an exponent below 1
     "    if n < 1:",
     "    if False:",
     [f"{ORACLE}::TestOraclePlethysm::test_power_exponent_below_one"]),
    ("oracle.py",  # each class's first factor multiplied by the unit: the
     # values stay right, only the count of products sees it
     "{sig: pad * c for sig, c in stretched[rho[0]].items()}",
     "_p_mult({(): pad}, stretched[rho[0]])",
     [f"{ORACLE}::TestOraclePlethysm::test_folds_each_class_from_its_first_factor"]),
    ("oracle.py",  # the basis change keeps zero coefficients
     "        if val:\n",
     "        if True:\n",
     [f"{ORACLE}::TestOracleProduct::test_zeros_from_cancellation_stay_out_of_answers"]),
    # --- verification.py: each support check, the sweep loop and run_scope
    ("verification.py",  # dominance check passes always
     "if not (_dominates(top, lam) and _dominates(lam, bottom)):",
     "if False:",
     [INJECTED]),
    ("verification.py",  # Minkowski bound check passes always
     "if not _contains(bound, lam):",
     "if False:",
     [INJECTED]),
    ("verification.py",  # SXP lower bound check passes always
     "if not sxp_lower_check(lam.parts, mu):",
     "if False:",
     [INJECTED]),
    ("verification.py",  # SXP upper bound check passes always
     "if not _contains(upper, mu):",
     "if False:",
     [INJECTED]),
    ("verification.py",  # empty-core check passes always
     "if not _has_empty_core(mu, n):",
     "if False:",
     [INJECTED]),
    ("verification.py",  # containment filter check passes always
     "if not plethysm_filter_check(nu.parts, lam):",
     "if False:",
     [INJECTED]),
    ("verification.py",  # trivial/sign closed form check passes always
     "if closed_form != extracted:",
     "if False:",
     [INJECTED]),
    ("verification.py",  # every fast answer equals the oracle's
     "if fast == slow:",
     "if True:",
     [f"{CLI}::TestVerify::test_failed_sweep_exit_1"]),
    ("verification.py",  # the oracle asked for every order: only the count
     # of its calls sees it, since its answer to both orders is the same
     "if slot[0] != (nu, mu):",
     "if True:",
     [f"{CLI}::TestVerify::test_oracle_asked_once_per_unordered_pair"]),
    ("verification.py",  # the second order of a pair never swept
     "[(mu, nu)] if mu == nu else [(mu, nu), (nu, mu)]",
     "[(mu, nu)]",
     [f"{CLI}::TestVerify::test_mismatch_lists_fast_terms_then_oracle_extras"]),
    ("verification.py",  # the mismatch diff walks the oracle's terms first
     "{**fast._parts, **slow._parts}",
     "{**slow._parts, **fast._parts}",
     [f"{CLI}::TestVerify::test_mismatch_lists_fast_terms_then_oracle_extras"]),
    ("verification.py",  # the checks read the terms in reversed order
     "bad = check(*case, expansion._parts)",
     "bad = check(*case, dict(reversed(expansion._parts.items())))",
     [INJECTED]),
    ("verification.py",  # the pinned statistic compare passes always
     "if stats != (231, 142, 40):",
     "if False:",
     [f"{INJECTED}::test_pinned_statistic_fires"]),
    ("verification.py",  # the oracle-table budget never refuses
     "if p * p > ORACLE_TABLE_BUDGET:",
     "if False:",
     [f"{CLI}::TestVerify::test_budget_checked_at_every_degree"]),
    ("verification.py",  # an unknown scope passes through to a KeyError
     "    if scope not in sweeps:\n        raise ValueError(f\"unknown scope {scope!r}\")\n",
     "",
     [f"{CLI}::TestVerify::test_unknown_scope_raises"]),
    # --- cli.py
    ("cli.py",  # a refusal reworded: only the same-bytes digest reads its words
     "verify --max must be a degree >= 0, got",
     "verify --max must be a degree of 0 or more, got",
     [BYTES]),
    ("cli.py",  # the corners of one or two factors printed in reverse; the
     # three factors of test_lr_theta keep their order
     "[list(p) for p in sorted(corners)]",
     "[list(p) for p in sorted(corners, reverse=len(args.mu) < 3)]",
     [BYTES]),
    ("cli.py",  # a help string argparse cannot format: only --help reads it
     'help="also list every partition passing all sxp filters")',
     'help="also list every partition passing all sxp filters %(")',
     [f"{README}::test_help_renders"]),
    ("cli.py",  # main exits 0 on a failed verify
     'return FAILURE if output.get("status") == "fail" else 0',
     "return 0",
     [f"{CLI}::TestVerify::test_failed_sweep_exit_1"]),
    ("cli.py",  # an internal TypeError reads as a usage error, exit 2
     '    except ValueError as exc:\n        sys.stderr.write(f"error: {exc}\\n")',
     '    except (ValueError, TypeError) as exc:\n        sys.stderr.write(f"error: {exc}\\n")',
     [f"{CLI}::TestExpand::test_internal_type_error_is_not_a_usage_error"]),
]


def _pytest(cwd: Path, targets: list[str]) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for the targets run on the copy at cwd."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if proc.returncode == 0 else "fail"), time.perf_counter() - start


def main() -> int:
    sources = {}
    for i, (name, old, _, _) in enumerate(MUTANTS):
        text = sources.setdefault(name, (ROOT / "src/schurkit" / name).read_text())
        if text.count(old) != 1:
            print(f"mutant {i}: {name}: the old text occurs {text.count(old)} times"
                  f" (must be once): {old!r}")
            return 1
    with tempfile.TemporaryDirectory(prefix="schurkit-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, copy / name)
        targets = sorted({t for *_, ts in MUTANTS for t in ts})
        status, secs = _pytest(copy, targets)
        print(f"unmutated: {status} in {secs:.1f}s", flush=True)
        if status != "pass":
            return 1
        survivors = 0
        for i, (name, old, new, ts) in enumerate(MUTANTS):
            path = copy / "src/schurkit" / name
            path.write_text(sources[name].replace(old, new))
            try:
                status, secs = _pytest(copy, ts)
            finally:
                path.write_text(sources[name])
            killed = status != "pass"
            survivors += not killed
            label = f"killed ({status})" if killed else "SURVIVED"
            first = old.strip().splitlines()[0]
            print(f"mutant {i:2d}: {label:16s} {secs:5.1f}s  {name}: {first}", flush=True)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
