"""Sparse exact arithmetic in the Schur basis.

Expansions are immutable maps from Partition to an int coefficient, always
homogeneous and zero-free; no floats anywhere.  Plethysm weights are exact
fractions.Fraction values that must clear to integers.

Littlewood-Richardson coefficients are counted by backtracking over skew
semistandard fillings with the lattice-word condition checked incrementally.
That path is deliberately independent of the character-based computations so
the two can cross-check each other (see the oracle module).
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .partitions import Partition, all_partitions, partitions_of
from .quotients import (
    _beads_between,
    _beta_set,
    _partition_from_beta,
    reconstruct,
    sxp_sign,
)

_EMPTY = Partition()


class NonIntegralResultError(ArithmeticError):
    """A computation that must produce integers left a denominator behind.
    This signals an internal bug, never a user error."""


class SchurExpansion:
    """Homogeneous integer combination of Schur functions, stored sparsely."""

    __slots__ = ("_degree", "_terms")

    def __init__(self, degree: int, terms: Mapping[Partition, int]):
        clean = {}
        for lam, coeff in terms.items():
            if isinstance(coeff, bool):
                raise TypeError("Schur coefficients must be int, got bool")
            if coeff == 0:
                continue
            if not isinstance(coeff, int):
                raise TypeError(f"Schur coefficients must be int, got {type(coeff)}")
            if lam.size != degree:
                raise ValueError(
                    f"term {lam!r} has size {lam.size}, expected degree {degree}"
                )
            clean[lam] = coeff
        self._degree = degree
        self._terms = MappingProxyType(clean)

    @classmethod
    def unit(cls) -> "SchurExpansion":
        """The multiplicative identity s_() with coefficient 1."""
        return cls(0, {_EMPTY: 1})

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def terms(self) -> Mapping[Partition, int]:
        return self._terms

    def coefficient(self, lam: Partition) -> int:
        return self._terms.get(lam, 0)

    def support(self) -> frozenset[Partition]:
        return frozenset(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchurExpansion)
            and self._degree == other._degree
            and dict(self._terms) == dict(other._terms)
        )

    def __hash__(self) -> int:
        return hash((self._degree, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*s{list(p.parts)}" for p, c in self.sorted_terms())
        return f"SchurExpansion(degree={self._degree}, {body or '0'})"

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        """Terms in descending lexicographic order of the index partition,
        the canonical order for serialisation."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].parts, reverse=True)

    def to_json_obj(self) -> dict:
        return {
            "degree": self._degree,
            "terms": [
                {"partition": p.to_list(), "coeff": str(c)}
                for p, c in self.sorted_terms()
            ],
        }


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: the number of semistandard skew
    fillings of lam/mu with content nu whose reverse reading word is a
    lattice word.  Returns 0 on size mismatch or failed containment."""
    if lam.size != mu.size + nu.size or not lam.contains(mu):
        return 0
    if not lam.contains(nu):  # the coefficient is symmetric in mu, nu
        return 0
    if not nu:
        return 1
    letters = len(nu)
    # reading order: rows by decreasing part (English top row first), right
    # to left within each row; the neighbours each cell must respect are
    # then already filled when the cell is visited
    cells = [
        (i, j) for i in range(len(lam)) for j in range(lam[i] - 1, mu[i] - 1, -1)
    ]
    grid = [[0] * lam[i] for i in range(len(lam))]
    remaining = list(nu.parts)
    counts = [0] * (letters + 1)

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        hi = grid[i][j + 1] if j + 1 < lam[i] else letters
        lo = 1
        if i > 0 and j >= mu[i - 1]:
            lo = grid[i - 1][j] + 1
        total = 0
        for a in range(lo, hi + 1):
            if remaining[a - 1] == 0:
                continue
            if a > 1 and counts[a - 1] <= counts[a]:
                continue
            grid[i][j] = a
            remaining[a - 1] -= 1
            counts[a] += 1
            total += rec(idx + 1)
            grid[i][j] = 0
            remaining[a - 1] += 1
            counts[a] -= 1
        return total

    return rec(0)


@lru_cache(maxsize=8192)
def _pair_product(mu: Partition, nu: Partition) -> Mapping[Partition, int]:
    """s_mu * s_nu as a term dict.  Candidate shapes are partitions of the
    right size containing mu with first part and length bounded by the rule;
    the smaller factor is used as tableau content."""
    if not mu:
        return MappingProxyType({nu: 1})
    if not nu:
        return MappingProxyType({mu: 1})
    inner, content = (mu, nu) if nu.size <= mu.size else (nu, mu)
    out = {}
    for lam in partitions_of(
        mu.size + nu.size, max_part=mu[0] + nu[0], max_length=len(mu) + len(nu)
    ):
        if lam.contains(inner):
            c = lr_coefficient(lam, inner, content)
            if c:
                out[lam] = c
    return MappingProxyType(out)


def schur_product(f: SchurExpansion, g: SchurExpansion) -> SchurExpansion:
    """Bilinear extension of the Littlewood-Richardson rule."""
    acc: dict[Partition, int] = defaultdict(int)
    for mu, a in f.terms.items():
        for nu, b in g.terms.items():
            for lam, c in _pair_product(mu, nu).items():
                acc[lam] += a * b * c
    return SchurExpansion(f.degree + g.degree, acc)


def multi_schur_product(
    mus: Iterable[Partition], prune: bool = False
) -> SchurExpansion:
    """Product of Schur functions s_{mu_0} * s_{mu_1} * ... evaluated left to
    right as binary products.

    With ``prune=True`` every intermediate term is dropped unless contained
    in the Minkowski-corner bound for the full factor list.  Intermediate
    supports are contained in final supports cell-wise, so the pruning can
    only remove terms that could never contribute; outputs are identical
    either way.
    """
    factors = list(mus)
    bound = None
    if prune and factors:
        from .positivity import lr_bound

        bound = lr_bound(factors)
    out = SchurExpansion.unit()
    for f in factors:
        out = schur_product(out, SchurExpansion(f.size, {f: 1}))
        if bound is not None:
            out = SchurExpansion(
                out.degree,
                {lam: c for lam, c in out.terms.items() if bound.contains(lam)},
            )
    return out


def z_of(rho: Partition) -> int:
    """Centraliser order of the conjugacy class of cycle type rho:
    product over part values i of i^m_i * m_i!."""
    z = 1
    for part, mult in Counter(rho.parts).items():
        z *= part**mult * factorial(mult)
    return z


def _character_rec(
    mu: tuple[int, ...], rho: tuple[int, ...], memo: dict
) -> int:
    """Murnaghan-Nakayama recursion on beta-sets: a border strip of length k
    is a bead move b -> b-k, with height the number of beads in between."""
    if not rho:
        return 1 if not mu else 0
    key = (mu, rho)
    cached = memo.get(key)
    if cached is not None:
        return cached
    k, rest = rho[0], rho[1:]
    beta = _beta_set(mu, len(mu))
    occupied = set(beta)
    total = 0
    for b in beta:
        t = b - k
        if t < 0 or t in occupied:
            continue
        height = _beads_between(beta, t, b)
        new_mu = _partition_from_beta((occupied - {b}) | {t})
        term = _character_rec(new_mu, rest, memo)
        total += -term if height % 2 else term
    memo[key] = total
    return total


class CharacterCache:
    """Shared character memo with a linearizable get-or-compute contract.

    The default behaviour of :func:`character` keeps its memo local to one
    top-level call, which keeps memory predictable under exhaustive sweeps;
    pass an instance of this class to share values across calls and threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._memo: dict = {}

    def value(self, mu: Partition, rho: Partition) -> int:
        with self._lock:
            return _character_rec(mu.parts, rho.parts, self._memo)

    def __len__(self) -> int:
        return len(self._memo)


def character(
    mu: Partition, rho: Partition, cache: CharacterCache | None = None
) -> int:
    """Irreducible symmetric-group character chi^mu at cycle type rho."""
    if mu.size != rho.size:
        raise ValueError(
            f"character requires |mu| == |rho|, got {mu.size} and {rho.size}"
        )
    if cache is not None:
        return cache.value(mu, rho)
    return _character_rec(mu.parts, rho.parts, {})


def _partition_tuples(n: int, total: int) -> Iterator[tuple[Partition, ...]]:
    """All n-tuples of partitions with sizes summing to total."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first_size in range(total + 1):
        for q in all_partitions(first_size):
            for rest in _partition_tuples(n - 1, total - first_size):
                yield (q,) + rest


def _product_coefficient(lam: Partition, factors: Iterable[Partition]) -> int:
    """<s_lam, s_{f_0} * s_{f_1} * ...> by folding binary products, keeping
    only intermediate shapes contained in lam (no other shape can grow into
    lam under further multiplication)."""
    fs = sorted((f for f in factors if f), key=lambda p: p.size, reverse=True)
    if not fs:
        return 1 if not lam else 0
    if sum(f.size for f in fs) != lam.size or not lam.contains(fs[0]):
        return 0
    if len(fs) == 1:
        return 1  # containment plus equal size forces equality
    current = {fs[0]: 1}
    for f in fs[1:-1]:
        nxt: dict[Partition, int] = defaultdict(int)
        for sig, mult in current.items():
            for tau in partitions_of(
                sig.size + f.size, max_part=lam[0], max_length=len(lam)
            ):
                if tau.contains(sig) and lam.contains(tau):
                    c = lr_coefficient(tau, sig, f)
                    if c:
                        nxt[tau] += mult * c
        if not nxt:
            return 0
        current = dict(nxt)
    last = fs[-1]
    return sum(mult * lr_coefficient(lam, sig, last) for sig, mult in current.items())


@lru_cache(maxsize=1024)
def sxp_plethysm(n: int, lam: Partition) -> SchurExpansion:
    """Expansion of p_n composed with s_lam in the Schur basis, via the SXP
    rule: <s_mu, p_n o s_lam> = sgn_n(mu) * <s_lam, s_{mu^(0)} ... s_{mu^(n-1)}>.

    Every mu in the support has empty n-core, so candidates are generated by
    reconstructing from all n-tuples of partitions with total size |lam|.
    Character-free; cached because plethysm assembly reuses the same pieces
    heavily.
    """
    if n < 1:
        raise ValueError("plethysm exponent n must be >= 1")
    terms = {}
    for tup in _partition_tuples(n, lam.size):
        coeff = _product_coefficient(lam, tup)
        if coeff == 0:
            continue
        mu = reconstruct(n, _EMPTY, tup)
        terms[mu] = coeff * sxp_sign(mu, n)
    return SchurExpansion(n * lam.size, terms)


@lru_cache(maxsize=1024)
def _power_plethysm(rho: Partition, nu: Partition) -> SchurExpansion:
    """p_rho o s_nu in the Schur basis, as a product of sxp pieces."""
    out = SchurExpansion.unit()
    for k in rho:
        out = schur_product(out, sxp_plethysm(k, nu))
    return out


def schur_plethysm(
    mu: Partition, nu: Partition, cache: CharacterCache | None = None
) -> SchurExpansion:
    """Plethysm s_mu o s_nu, assembled as
    sum over rho of chi^mu(rho)/z_rho * (p_rho o s_nu).

    The rational weights always clear to integers; a surviving denominator
    would be an internal bug and raises NonIntegralResultError.
    """
    if cache is None:
        cache = CharacterCache()
    acc: dict[Partition, Fraction] = defaultdict(Fraction)
    for rho in all_partitions(mu.size):
        chi = character(mu, rho, cache)
        if chi == 0:
            continue
        weight = Fraction(chi, z_of(rho))
        for lam, c in _power_plethysm(rho, nu).terms.items():
            acc[lam] += weight * c
    terms = {}
    for lam, q in acc.items():
        if q == 0:
            continue
        if q.denominator != 1:
            raise NonIntegralResultError(
                f"coefficient of s_{list(lam.parts)} is {q}, not an integer"
            )
        terms[lam] = int(q)
    return SchurExpansion(mu.size * nu.size, terms)
