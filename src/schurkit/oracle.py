"""Brute-force reference computations, entirely in the power-sum basis.

This module exists to cross-check the main path and is allowed to be slow.
It shares Partition, SchurExpansion, z_of and quotients._rim_hooks with the
package; products, plethysms and the Schur <-> power-sum basis change are
written here from the defining formulas, so a tableau or quotient-walk bug
cannot hide.  Its tables grow on rho's smallest part and the main path's
characters on the largest.  A wrong partition from the shared rim-hook step
fails column orthogonality and acceptance criterion 9; a height off by one
flips column rho by (-1)^len(rho), unseen by orthogonality, and fails the
known-value and principal-specialization plethysm tests.

The basis change is the character table (Macdonald, I.7): s_mu is the sum
over rho of chi^mu(rho) p_rho / z_rho, and the coefficient of s_lam in
sum_rho c_rho p_rho is sum_rho c_rho chi^lam(rho).  Each degree's table is
built once, as int rows together with the class sizes n!/z_rho.  Power-sum
vectors hold scaled integers keyed by part tuples (``_schur_in_p(mu)`` is
|mu|! s_mu), so every sum is exact integer arithmetic.  A product may keep a
zero left by cancellation; ``_p_to_schur`` drops zeros, and divides by the
scale once per coefficient; a nonzero remainder raises NonIntegralResultError.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import factorial
from operator import mul

from .partitions import Partition, all_partitions
from .quotients import _rim_hooks
from .schur import NonIntegralResultError, SchurExpansion, z_of

_PVec = dict[tuple[int, ...], int]  # power-sum coefficients keyed by rho's parts


@lru_cache(maxsize=32)  # >= 16: _table(15), verify's top, reads every lower degree
def _table(n: int):
    """The character table of S_n as (partitions, index, rows, class_sizes):
    all partitions of n, which order both rows and columns; the position of
    each by its parts; rows[i][j] = chi^partitions[i](partitions[j]) as ints;
    and n!/z_rho for each column rho.  Column rho is one Murnaghan-Nakayama
    step on its smallest part k (the rule holds for any order of the parts,
    Macdonald I.7 Ex. 5), read off column rho - k of _table(n - k); each
    row's k-strips are found once per k."""
    parts = all_partitions(n)
    index = {p.parts: i for i, p in enumerate(parts)}
    sizes = tuple([factorial(n) // z_of(rho) for rho in parts])
    if not n:
        return parts, index, ((1,),), sizes
    columns, strips = [], {}  # k -> per row, its k-strips as (sub row, sign)
    for rho in parts:
        k = rho.parts[-1]
        _, sub_index, sub_rows, _ = _table(n - k)
        if k not in strips:
            strips[k] = [
                [(sub_index[sub], s) for sub, s in _rim_hooks(lam.parts, k)]
                for lam in parts
            ]
        j = sub_index[rho.parts[:-1]]
        columns.append([sum(sub_rows[i][j] * s for i, s in row) for row in strips[k]])
    return parts, index, tuple(list(zip(*columns))), sizes


def _schur_in_p(mu: Partition) -> _PVec:
    """|mu|! s_mu: chi^mu(rho) times the class size of rho."""
    _, index, rows, class_sizes = _table(mu.size)
    row = rows[index[mu.parts]]  # index's keys run in the rows' order
    return {rho: chi * size for rho, chi, size in zip(index, row, class_sizes) if chi}


def _p_mult(a: _PVec, b: _PVec) -> _PVec:
    # p_alpha * p_beta = p_{alpha union beta}; zeros from cancellation stay
    out: _PVec = defaultdict(int)
    for rho, x in a.items():
        for sig, y in b.items():
            out[tuple(sorted(rho + sig, reverse=True))] += x * y
    return out


def _p_stretch(a: _PVec, n: int) -> _PVec:
    # p_n o p_rho multiplies every part by n; coefficients ride along
    return {tuple([n * part for part in rho]): c for rho, c in a.items()}


def _p_to_schur(degree: int, pterms: _PVec, scale: int) -> SchurExpansion:
    """The Schur expansion of pterms / scale, where pterms has the given degree."""
    parts, index, rows, _ = _table(degree)
    column = [0] * len(parts)
    for rho, c in pterms.items():
        column[index[rho]] = c
    terms = {}
    for lam, row in zip(parts, rows):
        val = sum(map(mul, row, column))
        if val:
            coeff, rem = divmod(val, scale)
            if rem:
                raise NonIntegralResultError(
                    f"oracle coefficient of s_{list(lam.parts)} is {val}/{scale}"
                )
            terms[lam.parts] = coeff
    return SchurExpansion._from_parts(degree, terms)


def oracle_product(mu: Partition, nu: Partition) -> SchurExpansion:
    """s_mu * s_nu computed by multiplying the power-sum images."""
    prod = _p_mult(_schur_in_p(mu), _schur_in_p(nu))
    return _p_to_schur(mu.size + nu.size, prod, factorial(mu.size) * factorial(nu.size))


def oracle_power_plethysm(n: int, lam: Partition) -> SchurExpansion:
    """p_n o s_lam computed by stretching the power-sum image of s_lam."""
    if n < 1:
        raise ValueError("plethysm exponent n must be >= 1")
    stretched = _p_stretch(_schur_in_p(lam), n)
    return _p_to_schur(n * lam.size, stretched, factorial(lam.size))


def oracle_plethysm(mu: Partition, nu: Partition) -> SchurExpansion:
    """s_mu o s_nu from the defining expansion
    sum over rho of chi^mu(rho)/z_rho * p_rho o s_nu,
    with p_rho o s_nu evaluated in the power-sum basis throughout.

    With m = |mu| and d = |nu|, the rho term is scaled by m! through the
    class size, and by d! per part of rho through |nu|! s_nu; padding it by
    d!^(m - len rho) puts every term over the common scale m! d!^m.  As in
    ``_power_plethysm``, each term folds from its first stretched factor."""
    m, d = mu.size, nu.size
    base = _schur_in_p(nu)
    stretched = {k: _p_stretch(base, k) for k in range(1, m + 1)}
    dfact = factorial(d)
    acc: _PVec = defaultdict(int)
    for rho, weight in _schur_in_p(mu).items():
        pad = weight * dfact ** (m - len(rho))
        term = {sig: pad * c for sig, c in stretched[rho[0]].items()} if rho else {(): pad}
        for part in rho[1:]:
            term = _p_mult(term, stretched[part])
        for sig, c in term.items():
            acc[sig] += c
    return _p_to_schur(m * d, acc, factorial(m) * dfact**m)
