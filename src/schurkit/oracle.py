"""Brute-force reference computations, entirely in the power-sum basis.

This module exists to cross-check the main path and is allowed to be slow.
It shares only Partition, character and z_of with the rest of the package;
products and plethysms are reimplemented here from the defining formulas,
and the basis change between Schur functions and power sums lives only
here, so a bug in tableau enumeration or the abacus machinery cannot hide.
A shared character bug would still be caught by the orthogonality sweep in
the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .partitions import Partition, all_partitions
from .schur import CharacterCache, NonIntegralResultError, SchurExpansion, character, z_of

_PDict = dict[Partition, Fraction]


def _schur_in_p(mu: Partition, cache: CharacterCache | None) -> _PDict:
    out = {}
    for rho in all_partitions(mu.size):
        chi = character(mu, rho, cache)
        if chi:
            out[rho] = Fraction(chi, z_of(rho))
    return out


def _p_mult(a: _PDict, b: _PDict) -> _PDict:
    # p_alpha * p_beta = p_{alpha union beta}
    out: _PDict = defaultdict(Fraction)
    for rho, x in a.items():
        for sig, y in b.items():
            out[rho.union(sig)] += x * y
    return {k: v for k, v in out.items() if v}


def _p_stretch(a: _PDict, n: int) -> _PDict:
    # p_n o p_rho multiplies every part by n; coefficients ride along
    return {Partition(n * part for part in rho): c for rho, c in a.items()}


def _p_to_schur(
    degree: int, pterms: _PDict, cache: CharacterCache | None
) -> SchurExpansion:
    terms = {}
    for lam in all_partitions(degree):
        val = Fraction(0)
        for rho, coeff in pterms.items():
            chi = character(lam, rho, cache)
            if chi:
                val += chi * coeff
        if val:
            if val.denominator != 1:
                raise NonIntegralResultError(
                    f"oracle coefficient of s_{list(lam.parts)} is {val}"
                )
            terms[lam] = int(val)
    return SchurExpansion(degree, terms)


def oracle_product(
    mu: Partition, nu: Partition, cache: CharacterCache | None = None
) -> SchurExpansion:
    """s_mu * s_nu computed by multiplying the power-sum images."""
    if cache is None:
        cache = CharacterCache()  # memo shared across this call only
    prod = _p_mult(_schur_in_p(mu, cache), _schur_in_p(nu, cache))
    return _p_to_schur(mu.size + nu.size, prod, cache)


def oracle_power_plethysm(
    n: int, lam: Partition, cache: CharacterCache | None = None
) -> SchurExpansion:
    """p_n o s_lam computed by stretching the power-sum image of s_lam."""
    if n < 1:
        raise ValueError("plethysm exponent n must be >= 1")
    if cache is None:
        cache = CharacterCache()
    stretched = _p_stretch(_schur_in_p(lam, cache), n)
    return _p_to_schur(n * lam.size, stretched, cache)


def oracle_plethysm(
    mu: Partition, nu: Partition, cache: CharacterCache | None = None
) -> SchurExpansion:
    """s_mu o s_nu from the defining expansion
    sum over rho of chi^mu(rho)/z_rho * p_rho o s_nu,
    with p_rho o s_nu evaluated in the power-sum basis throughout."""
    if cache is None:
        cache = CharacterCache()
    base = _schur_in_p(nu, cache)
    acc: _PDict = defaultdict(Fraction)
    for rho in all_partitions(mu.size):
        chi = character(mu, rho, cache)
        if chi == 0:
            continue
        term: _PDict = {Partition(): Fraction(1)}
        for part in rho:
            term = _p_mult(term, _p_stretch(base, part))
        weight = Fraction(chi, z_of(rho))
        for sig, c in term.items():
            acc[sig] += weight * c
    acc = {k: v for k, v in acc.items() if v}
    return _p_to_schur(mu.size * nu.size, acc, cache)
