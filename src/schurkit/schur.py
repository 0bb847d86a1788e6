"""Sparse exact arithmetic in the Schur basis.

Expansions are immutable maps from partitions to int coefficients, always
homogeneous and zero-free; no floats anywhere.  Terms stay on dicts keyed by
part tuples without trailing zeros from the kernel to the JSON bytes: an
expansion holds the kernel's own dict, or the cached read-only pair product
itself, and Partitions are built only when a caller reads its ``terms``,
``support()`` or ``sorted_terms()``.  Plethysm weights are ints scaled by
|mu|!, divided out once each.

Littlewood-Richardson coefficients come from one walk that grows LR
tableaux strip by strip: each row of the content is added as a horizontal
strip with the lattice-word condition kept row by row, so every leaf is one
LR tableau and no candidate shape is ever tested.  That path is deliberately
independent of the character-based computations so the two can cross-check
each other (see the oracle module).
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Iterable, Mapping

from .partitions import Partition, _conjugate, _contains, all_partitions
from .quotients import _abacus_sign, _partition_from_beta, _quotient_walk, _rim_hooks


class NonIntegralResultError(ArithmeticError):
    """A computation that must produce integers left a denominator behind.
    This signals an internal bug, never a user error."""


class SchurExpansion:
    """Homogeneous integer combination of Schur functions, stored sparsely on
    part tuples; the Partition-keyed ``terms`` is built when first read."""

    __slots__ = ("_degree", "_parts", "_terms")

    def __init__(self, degree: int, terms: Mapping[Partition, int]):
        clean = {}
        for lam, coeff in terms.items():
            if not isinstance(lam, Partition):
                raise TypeError(f"Schur term keys must be Partition, got {type(lam)}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"Schur coefficients must be int, got {type(coeff)}")
            if coeff == 0:
                continue
            if lam.size != degree:
                raise ValueError(
                    f"term {lam!r} has size {lam.size}, expected degree {degree}"
                )
            clean[lam.parts] = coeff
        self._degree, self._parts, self._terms = degree, clean, None

    @classmethod
    def _from_parts(cls, degree: int, parts: Mapping[tuple, int]) -> "SchurExpansion":
        """The boundary: the kernel's own zero-free mapping of degree-sized part
        tuples, taken as it is; it may be the cached read-only pair product."""
        self = object.__new__(cls)
        self._degree, self._parts, self._terms = degree, parts, None
        return self

    @classmethod
    def unit(cls) -> "SchurExpansion":
        """The multiplicative identity s_() with coefficient 1."""
        return cls._from_parts(0, {(): 1})

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def terms(self) -> Mapping[Partition, int]:
        if self._terms is None:
            self._terms = MappingProxyType(
                {Partition(lam): c for lam, c in self._parts.items()}
            )
        return self._terms

    def coefficient(self, lam: Partition) -> int:
        return self._parts.get(lam.parts, 0)

    def support(self) -> frozenset[Partition]:
        return frozenset(self.terms)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchurExpansion)
            and self._degree == other._degree
            and self._parts == other._parts
        )

    def __hash__(self) -> int:
        return hash((self._degree, frozenset(self._parts.items())))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*s{list(p.parts)}" for p, c in self.sorted_terms())
        return f"SchurExpansion(degree={self._degree}, {body or '0'})"

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        """Terms in descending lexicographic order of the index partition,
        the canonical order for serialisation."""
        # keys are distinct, so the item sort never compares coefficients
        items = sorted(self._parts.items(), reverse=True)
        return [(Partition(lam), c) for lam, c in items]

    def to_json_obj(self) -> dict:
        parts = self._parts
        return {
            "degree": self._degree,
            "terms": [
                {"partition": list(lam), "coeff": str(parts[lam])}
                for lam in sorted(parts, reverse=True)
            ],
        }


_UNBOUNDED = 1 << 62  # no cap: above row 0, and on letter 1's lattice slack


def _lr_walk(
    inner: tuple[int, ...],
    content: tuple[int, ...],
    outer: tuple[int, ...] | None = None,
) -> dict[tuple[int, ...], int]:
    """Every shape lam with c^lam_{inner,content} != 0, mapped to that
    coefficient; only shapes inside ``outer`` when it is given.

    Content row k is added as a horizontal strip of letter k+1, one row at a
    time from the top (English order).  Row r gains at most old[r-1] - old[r]
    cells (columns stay strict), at most outer[r] - old[r], and at most what
    the lattice rule leaves: the k+1s in rows <= r may not outnumber the ks
    in rows < r.  A branch is dropped as soon as the cells still to place
    exceed old[r-1], all the room left below.  Each leaf is one LR tableau.

    Letter k+1 opens at row k, not row 0: letter k sits in no row above
    k-1, so the lattice rule leaves letter k+1 no room in rows 0..k-1, and
    at row k its allowance is the count of letter k in row k-1.  Rows with
    no room are crossed in a loop, not a call, and so are the rows that a
    strip's one last cell scans: its allowance is at least 1 where the scan
    starts and only grows, so the scan makes no lattice test.  The row that
    takes a strip's last cell records the leaf or opens the next letter
    itself.  ``grow`` receives itself as its last argument, not through a
    closure cell, so no cycle keeps a call's lists alive once it returns.
    """
    if outer is not None and not _contains(outer, inner):
        return {}
    if not content:
        return {inner: 1}
    rows = len(inner) + len(content)  # each strip opens at most one new row
    if outer is not None:
        rows = min(rows, len(outer))
    shape = list(inner) + [0] * (rows - len(inner))
    last = len(content) - 1
    leaves: dict[tuple[int, ...], int] = {}
    count = leaves.get  # a plain dict: defaultdict's __missing__ costs per shape

    def grow(k, r, left, slack, above, prev, strip, grow) -> None:
        # place `left` > 0 more cells of letter k+1 from row r down; `above`
        # is row r-1 before this strip, `slack` the lattice allowance at row
        # r, `prev` and `strip` the cells of letters k and k+1 in each row
        while True:
            if left > above or r == rows:
                return
            old = shape[r]
            hi = above - old  # plain compares: min() is a measurable cost here
            if slack < hi:
                hi = slack
            if left < hi:
                hi = left
            if outer is not None and outer[r] - old < hi:
                hi = outer[r] - old
            if hi > 0:
                break
            slack += prev[r]  # row r takes nothing: cross it without a call
            above, r = old, r + 1
        while left == 1:  # one cell left: each row with room below takes it
            if above > old and (outer is None or outer[r] > old):
                shape[r], strip[r] = old + 1, 1
                if k == last:
                    lam = tuple(shape)
                    leaves[lam] = count(lam, 0) + 1
                else:  # letter k+2 opens at row k+1, see the docstring
                    grow(k + 1, k + 1, content[k + 1], strip[k], shape[k], strip, strips[k + 1],
                         grow)
                shape[r], strip[r] = old, 0
            if not old or r + 1 == rows:  # no row below an empty row has room
                return
            above, old, r = old, shape[r + 1], r + 1
        lo = left - old if left > old else 0  # rows below hold at most old
        gained = prev[r]
        for x in range(hi, lo - 1, -1):
            shape[r] = old + x
            strip[r] = x
            if x < left:
                grow(k, r + 1, left - x, slack - x + gained, old, prev, strip, grow)
            elif k == last:
                lam = tuple(shape)
                leaves[lam] = count(lam, 0) + 1
            else:
                grow(k + 1, k + 1, content[k + 1], strip[k], shape[k], strip, strips[k + 1], grow)
        shape[r], strip[r] = old, 0

    strips = [[0] * rows for _ in content]  # every write is undone
    grow(0, 0, content[0], _UNBOUNDED, _UNBOUNDED, [0] * rows, strips[0], grow)
    # zeros only trail a partition, so counting them trims the padding
    return {lam[: len(lam) - lam.count(0)]: c for lam, c in leaves.items()}


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: the number of LR tableaux of shape
    lam/mu and content nu, counted by the strip walk restricted to lam.
    Returns 0 on size mismatch or failed containment."""
    return _lr_walk(mu.parts, nu.parts, lam.parts).get(lam.parts, 0)


@lru_cache(maxsize=8192)
def _pair_product(mu: tuple[int, ...], nu: tuple[int, ...]) -> Mapping[tuple, int]:
    """s_mu * s_nu on part tuples: one unbounded walk, with the factor of
    fewer rows as content (the walk branches per row and letter)."""
    inner, content = (mu, nu) if len(nu) <= len(mu) else (nu, mu)
    return MappingProxyType(_lr_walk(inner, content))


def _product(f: Mapping[tuple, int], g: Mapping[tuple, int]) -> Mapping[tuple, int]:
    """Bilinear extension of _pair_product, zero-free; may be its cached proxy."""
    if len(f) == len(g) == 1:
        (mu, a), (nu, b) = *f.items(), *g.items()
        if a == b == 1:
            return _pair_product(mu, nu)
    acc: dict[tuple[int, ...], int] = defaultdict(int)
    for mu, a in f.items():
        for nu, b in g.items():
            for lam, c in _pair_product(mu, nu).items():
                acc[lam] += a * b * c
    return {lam: c for lam, c in acc.items() if c}


def schur_product(f: SchurExpansion, g: SchurExpansion) -> SchurExpansion:
    """Bilinear extension of the Littlewood-Richardson rule, folded on part tuples."""
    terms = _product(f._parts, g._parts)
    return SchurExpansion._from_parts(f.degree + g.degree, terms)


def multi_schur_product(mus: Iterable[Partition]) -> SchurExpansion:
    """s_{mu_0} * s_{mu_1} * ..., folded left to right on part tuples from the unit."""
    out, degree = {(): 1}, 0
    for f in mus:
        out = _product(out, {f.parts: 1})
        degree += f.size
    return SchurExpansion._from_parts(degree, out)


def z_of(rho: Partition) -> int:
    """Centraliser order of the conjugacy class of cycle type rho:
    product over part values i of i^m_i * m_i!, read off the runs of equal
    parts as i * k for the k-th part of each run."""
    z, run, last = 1, 0, 0
    for part in rho.parts:
        run = run + 1 if part == last else 1
        last = part
        z *= part * run
    return z


def _character_rec(mu: tuple[int, ...], rho: tuple[int, ...], memo: dict) -> int:
    """Murnaghan-Nakayama recursion on rho's largest part first, over the subs
    that quotients._rim_hooks leaves.  Every caller passes |mu| = |rho| and each
    step removes rho[0] cells, so mu is empty exactly when rho is."""
    if not rho:
        return 1
    key = (mu, rho)
    cached = memo.get(key)
    if cached is not None:
        return cached
    rest, total = rho[1:], 0
    for sub, sign in _rim_hooks(mu, rho[0]):  # a loop: sum(genexpr) is slower
        total += sign * _character_rec(sub, rest, memo)
    memo[key] = total
    return total


def character(mu: Partition, rho: Partition) -> int:
    """Irreducible symmetric-group character chi^mu at cycle type rho."""
    if mu.size != rho.size:
        raise ValueError(
            f"character requires |mu| == |rho|, got {mu.size} and {rho.size}"
        )
    return _character_rec(mu.parts, rho.parts, {})


def _product_coefficient(lam: tuple, factors: Iterable[tuple]) -> int:
    """<s_lam, s_{f_0} * s_{f_1} * ...> on part tuples, by folding walks
    bounded by lam (no other shape can grow into lam under further
    multiplication); the last step can only reach lam itself."""
    fs = sorted((f for f in factors if f), key=sum, reverse=True)
    if not fs:
        return 1 if not lam else 0
    current = {fs[0]: 1}
    for f in fs[1:]:
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for sig, mult in current.items():
            for tau, c in _lr_walk(sig, f, lam).items():
                nxt[tau] += mult * c
        current = nxt
    return current.get(lam, 0)


@lru_cache(maxsize=1024)
def sxp_plethysm(n: int, lam: Partition) -> SchurExpansion:
    """Expansion of p_n composed with s_lam in the Schur basis, via the SXP
    rule: <s_mu, p_n o s_lam> = sgn_n(mu) * <s_lam, s_{mu^(0)} ... s_{mu^(n-1)}>.

    Every mu in the support has empty n-core, and the pairing is 0 unless
    every quotient component fits inside lam, so the loop runs over those
    n-quotients only, coefficient first; a nonzero term reads mu and its sign
    off the walk's sorted beads.  Character-free; cached because plethysm
    assembly reuses the same pieces heavily.
    """
    if n < 1:
        raise ValueError("plethysm exponent n must be >= 1")
    if n == 1 or not lam:  # p_1 o s_lam = s_lam, and p_n o s_() = s_()
        return SchurExpansion._from_parts(lam.size, {lam.parts: 1})
    terms, coeffs = {}, {}
    for tup, beads in _quotient_walk(n, lam.size, lam.parts):
        factors = tuple(sorted(tup))  # the pairing ignores the factor order
        if factors not in coeffs:
            coeffs[factors] = _product_coefficient(lam.parts, factors)
        if coeffs[factors]:
            terms[_partition_from_beta(beads)] = coeffs[factors] * _abacus_sign(beads, n)
    return SchurExpansion._from_parts(n * lam.size, terms)


@lru_cache(maxsize=1024)
def _power_plethysm(rho: tuple[int, ...], nu: tuple[int, ...]) -> Mapping[tuple, int]:
    """p_rho o s_nu on part tuples, nu validated by schur_plethysm: sxp pieces
    folded from the first, so no product is taken with the unit."""
    lam = Partition._from_parts(nu)
    out = sxp_plethysm(rho[0], lam)._parts if rho else {(): 1}
    for k in rho[1:]:
        out = _product(out, sxp_plethysm(k, lam)._parts)
    return MappingProxyType(out)


@lru_cache(maxsize=256)
def _plethysm_weights(mu: tuple[int, ...]) -> tuple[tuple[tuple, int], ...]:
    """(rho, chi^mu(rho) * m!/z_rho) for each rho of m = |mu| with a nonzero
    character, computed once per mu however many nu it is composed with."""
    m = sum(mu)
    scale, memo, out = factorial(m), {}, []
    for rho in all_partitions(m):
        chi = _character_rec(mu, rho.parts, memo)
        if chi:
            out.append((rho.parts, chi * (scale // z_of(rho))))
    return tuple(out)


def schur_plethysm(mu: Partition, nu: Partition) -> SchurExpansion:
    """Plethysm s_mu o s_nu, assembled on part tuples as
    sum over rho of chi^mu(rho)/z_rho * (p_rho o s_nu).

    With m = |mu|, each weight is scaled by m! into the int
    chi^mu(rho) * m!/z_rho (the class size of rho times the character), and
    each coefficient is divided by m! once.  The division is always exact; a
    remainder would be an internal bug and raises NonIntegralResultError.

    As omega(s_mu o s_nu) is s_mu o s_nu' for |nu| even and s_mu' o s_nu' for
    |nu| odd (Macdonald I.8 Ex. 1), a nu with more rows than columns is summed
    as nu' and the answer's keys conjugated, so the LR walks have fewer letters.
    An inner factor of size at most one needs no sum: s_mu o s_1 = s_mu, and
    s_mu o s_() = s_mu(1), which is 1 when mu has at most one row and 0 else.
    """
    m = mu.size
    if nu.size <= 1:
        terms = {mu.parts: 1} if nu.size else {(): 1} if len(mu) <= 1 else {}
        return SchurExpansion._from_parts(m * nu.size, terms)
    scale = factorial(m)
    flip = nu[0] < len(nu)
    outer = mu.parts if not flip or nu.size % 2 == 0 else _conjugate(mu.parts)
    inner = _conjugate(nu.parts) if flip else nu.parts
    acc: dict[tuple[int, ...], int] = defaultdict(int)
    for rho, weight in _plethysm_weights(outer):
        for lam, c in _power_plethysm(rho, inner).items():
            acc[lam] += weight * c
    terms = {}
    for lam, val in acc.items():
        coeff, rem = divmod(val, scale)
        if rem:
            lam = _conjugate(lam) if flip else lam
            raise NonIntegralResultError(
                f"coefficient of s_{list(lam)} is {val}/{scale}, not an integer"
            )
        if coeff:
            terms[_conjugate(lam) if flip else lam] = coeff
    return SchurExpansion._from_parts(m * nu.size, terms)
