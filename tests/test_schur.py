import itertools
import random
import sys
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from schurkit import (
    NonIntegralResultError,
    Partition,
    SchurExpansion,
    all_partitions,
    character,
    lr_coefficient,
    multi_schur_product,
    reconstruct,
    schur_plethysm,
    schur_product,
    sxp_plethysm,
    sxp_sign,
    z_of,
)
from schurkit.oracle import _p_to_schur, _schur_in_p, _table
from schurkit.quotients import MAX_WALK_N
from schurkit.schur import (
    _lr_walk,
    _pair_product,
    _plethysm_weights,
    _power_plethysm,
    _product,
    _product_coefficient,
)

P = Partition


def single(lam):
    return SchurExpansion(lam.size, {lam: 1})


class TestLRCoefficient:
    def test_extreme_shapes_have_coefficient_one(self):
        mu, nu = P([3, 2]), P([1, 1])
        assert lr_coefficient(mu + nu, mu, nu) == 1
        assert lr_coefficient(mu.union(nu), mu, nu) == 1

    def test_pieri_case(self):
        assert lr_coefficient(P([2, 1]), P([1]), P([1, 1])) == 1

    def test_incompatible_shapes(self):
        assert lr_coefficient(P([2]), P([1, 1]), P()) == 0

    def test_size_mismatch(self):
        assert lr_coefficient(P([3]), P([1]), P([1])) == 0
        # no shape inside lam has another size, so the bounded fold reads 0
        assert _product_coefficient((3, 1), ((2,), (1,))) == 0
        assert _product_coefficient((2,), ((2,), (1,))) == 0

    def test_multiplicity_two(self):
        # smallest classical multiplicity-2 case, from s_{2,1} * s_{2,1}
        assert lr_coefficient(P([3, 2, 1]), P([2, 1]), P([2, 1])) == 2

    def test_symmetry(self):
        for total in range(2, 9):
            for a in range(1, total):
                for mu in all_partitions(a):
                    for nu in all_partitions(total - a):
                        for lam in all_partitions(total):
                            assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                                lam, nu, mu
                            )


def pair_terms(mu, nu):
    """_pair_product on the part tuples of mu and nu, keyed by Partition."""
    return {P(lam): c for lam, c in _pair_product(mu.parts, nu.parts).items()}


def principal(lam, k):
    """s_lam(1^k) by the hook-content formula."""
    conj = lam.conjugate()
    num = prod(k + j - i for i in range(len(lam)) for j in range(lam[i]))
    hooks = prod(
        lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])
    )
    assert num % hooks == 0
    return num // hooks


# |mu| + |nu| from 16 to 26, past the oracle sweep's degree 10
BIG_PAIRS = [
    (P([4, 3, 2, 1]), P([3, 2, 1])),
    (P([5, 3, 1]), P([4, 2, 2])),
    (P([6, 4, 2]), P([3, 2, 1])),
    (P([4, 4, 2, 1]), P([3, 3, 2])),
    (P([5, 4, 3, 2, 1]), P([2, 2, 1])),
    (P([6, 3, 2]), P([5, 3, 2, 1])),
    (P([3, 3, 3, 3]), P([4, 4, 2, 2])),
    (P([5, 4, 3, 2]), P([4, 3, 2, 1])),
    (P([6, 5, 3, 1]), P([4, 3, 2, 2])),
    (P([2, 2, 2, 2, 2, 1, 1]), P([7, 6])),
]


MERSENNE_61 = (1 << 61) - 1  # a prime


def _alternant(powers, alpha):
    """det(x_i^alpha_j) mod MERSENNE_61 by Gaussian elimination, where
    powers[i][e] is x_i^e."""
    p = MERSENNE_61
    m = [[row[a] for a in alpha] for row in powers]
    det = 1
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for i in range(c + 1, len(m)):
            f = m[i][c] * inv % p
            m[i][c:] = [(a - f * b) % p for a, b in zip(m[i][c:], m[c][c:])]
    return det % p


def _schur_at(x, top):
    """lam -> s_lam(x) mod MERSENNE_61 for part tuples lam with at most len(x)
    rows and parts at most top, with s_lam = a_{lam+delta} / a_delta."""
    p, k = MERSENNE_61, len(x)
    powers = []
    for xi in x:  # x_i^e for e up to the largest exponent, top + k - 1
        powers.append([1])
        for _ in range(top + k - 1):
            powers[-1].append(powers[-1][-1] * xi % p)

    def alternant(lam):
        lam = lam + (0,) * (k - len(lam))
        return _alternant(powers, [lam[j] + k - 1 - j for j in range(k)])

    vandermonde = alternant(())
    assert vandermonde, "the point repeats a coordinate"
    inv = pow(vandermonde, p - 2, p)
    return lambda lam: alternant(lam) * inv % p


def _point_sides(terms, right, seed, rows=0):
    """(sum_lam c_lam s_lam(x), right(x, s)) mod MERSENNE_61 at one seeded
    random point x of F_p^k, where s = _schur_at(x, ...) and k is the longest
    row count among the terms (part tuples), or rows if that is more.  The
    Schur polynomials with at most k rows are linearly independent, so a wrong
    coefficient makes the sides differ except with probability at most the
    degree over p (Schwartz-Zippel)."""
    p, k = MERSENNE_61, max(rows, *map(len, terms))
    rng = random.Random(seed)
    x = [rng.randrange(1, p) for _ in range(k)]
    s = _schur_at(x, max(lam[0] for lam in terms))
    return sum(c * s(lam) for lam, c in terms.items()) % p, right(x, s)


def _product_sides(mu, nu, terms):
    """_point_sides for terms claimed to be s_mu * s_nu, mu and nu part tuples."""
    return _point_sides(terms, lambda x, s: s(mu) * s(nu) % MERSENNE_61, seed=sum(mu))


def _sxp_sides(n, lam, terms):
    """_point_sides for terms claimed to be p_n o s_lam, whose value at x is
    s_lam(x_1^n, ..., x_k^n); lam a part tuple."""

    def right(x, s):
        return _schur_at([pow(xi, n, MERSENNE_61) for xi in x], lam[0])(lam)

    return _point_sides(terms, right, seed=n * sum(lam), rows=len(lam))


def _plethysm_sides(mu, nu, terms):
    """_point_sides for terms claimed to be s_mu o s_nu, mu and nu part tuples.

    At x the plethysm is s_mu(y) over the monomials y of s_nu(x), read off
    their power sums p_j(y) = s_nu(x_1^j, ..., x_k^j): h_j(y) by Newton's
    identity j h_j = sum_{i=1..j} p_i h_{j-i}, then s_mu(y) =
    det(h_{mu_i - i + j}) (Jacobi-Trudi).  s_mu o s_nu is a summand of
    s_nu^|mu|, so its terms have at most |mu| len(nu) rows."""
    p, m = MERSENNE_61, sum(mu)

    def right(x, s):
        power = [None] + [  # power[j] = p_j(y)
            _schur_at([pow(xi, j, p) for xi in x], nu[0])(nu) for j in range(1, m + 1)
        ]
        h = [1]
        for j in range(1, m + 1):
            newton = sum(power[i] * h[j - i] for i in range(1, j + 1))
            h.append(newton * pow(j, p - 2, p) % p)
        matrix = [[h[a - i + j] if a - i + j >= 0 else 0 for j in range(len(mu))]
                  for i, a in enumerate(mu)]
        return _alternant(matrix, range(len(mu)))  # the determinant of matrix

    return _point_sides(terms, right, seed=m * sum(nu), rows=m * len(nu))


class TestLRPastOracle:
    """Exact identities that check whole products at degrees the oracle
    sweeps do not reach."""

    @pytest.mark.parametrize("mu,nu", BIG_PAIRS)
    def test_principal_specialization(self, mu, nu):
        terms = pair_terms(mu, nu)
        assert all(lam.size == mu.size + nu.size for lam in terms)
        for k in (1, 2, 3, 5, 8, 13):
            expected = principal(mu, k) * principal(nu, k)
            assert sum(c * principal(lam, k) for lam, c in terms.items()) == expected

    @pytest.mark.parametrize("mu,nu", BIG_PAIRS)
    def test_every_coefficient_at_a_random_point(self, mu, nu):
        terms = _pair_product(mu.parts, nu.parts)
        left, right = _product_sides(mu.parts, nu.parts, terms)
        assert left == right

    def test_random_point_catches_one_moved_unit(self, monkeypatch):
        # one unit moved from a term of coefficient >= 2 to another term
        # keeps the support and the coefficient sum; the point check sees it
        import schurkit.schur

        walk = schurkit.schur._lr_walk

        def moved(inner, content, outer=None):
            terms = walk(inner, content, outer)
            a = next(lam for lam, c in terms.items() if c >= 2)
            b = next(lam for lam in terms if lam != a)
            terms[a] -= 1
            terms[b] += 1
            return terms

        mu, nu = BIG_PAIRS[0]
        right_terms = dict(_pair_product(mu.parts, nu.parts))
        monkeypatch.setattr(schurkit.schur, "_lr_walk", moved)
        terms = _pair_product.__wrapped__(mu.parts, nu.parts)  # past the cache
        assert terms != right_terms and terms.keys() == right_terms.keys()
        assert sum(terms.values()) == sum(right_terms.values())
        left, right = _product_sides(mu.parts, nu.parts, terms)
        assert left != right

    @pytest.mark.parametrize("mu,nu", BIG_PAIRS)
    def test_conjugation_symmetry(self, mu, nu):
        conj = pair_terms(mu.conjugate(), nu.conjugate())
        assert {lam.conjugate(): c for lam, c in conj.items()} == dict(
            pair_terms(mu, nu)
        )

    @pytest.mark.parametrize("mu,nu", BIG_PAIRS)
    def test_lr_coefficient_matches_pair_product(self, mu, nu):
        terms = pair_terms(mu, nu)
        shapes = [
            lam
            for lam in all_partitions(mu.size + nu.size)
            if lam[0] <= mu[0] + nu[0] and len(lam) <= len(mu) + len(nu)
        ]
        outside = 0
        for lam in shapes:
            outside += lam not in terms
            assert lr_coefficient(lam, mu, nu) == terms.get(lam, 0)
        assert outside > 0

    @pytest.mark.parametrize("mu,nu", BIG_PAIRS)
    def test_bounded_walk_keeps_shapes_inside_outer(self, mu, nu):
        box = P([mu[0] + nu[0] - 2] * (len(mu) + len(nu) - 1))
        terms = pair_terms(mu, nu)
        inside = {lam.parts: c for lam, c in terms.items() if box.contains(lam)}
        assert 0 < len(inside) < len(terms)
        assert _lr_walk(mu.parts, nu.parts, box.parts) == inside

    @pytest.mark.parametrize(
        "factors",
        [
            [P([3, 2]), P([2, 1]), P([2, 1])],
            [P([4, 2]), P([3, 1, 1]), P([2, 2])],
            [P([2, 1]), P([2, 1]), P([2, 1]), P([2, 1])],
            [P([3, 1]), P([1, 1, 1]), P([2, 2]), P([3])],
        ],
    )
    def test_product_coefficient_matches_product(self, factors):
        product = multi_schur_product(factors)
        parts = [f.parts for f in factors]
        for lam in all_partitions(product.degree):
            assert _product_coefficient(lam.parts, parts) == product.coefficient(lam)


def _syt_count(lam):
    """f^lam, the number of standard Young tableaux of shape lam (part
    tuple), by the hook length formula."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    return factorial(len(cells)) // prod(lam[i] - j + conj[j] - i - 1 for i, j in cells)


def _add_cells(rng, parts, cells, rows):
    """parts plus `cells` cells, each at a random addable corner in a row < rows."""
    parts = list(parts)
    for _ in range(cells):
        padded = parts + [0]
        top = min(len(padded), rows)
        addable = [r for r in range(top) if r == 0 or padded[r] < padded[r - 1]]
        padded[rng.choice(addable)] += 1
        parts = padded if padded[-1] else padded[:-1]
    return tuple(parts)


def _walk_triples(count, seed):
    """(mu, nu, outer) part tuples with |mu| + |nu| from 14 to 26 and outer of
    size |mu| + |nu| plus 0-4: three in four outers grow the row-wise max of
    mu and nu at random, every fourth grows mu inside fewer rows than nu has
    (no LR tableau fits there)."""
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        total = rng.randint(14, 26)
        a = rng.randint(1, total - 1)
        mu = rng.choice(all_partitions(a)).parts
        nu = rng.choice(all_partitions(total - a)).parts
        size = total + rng.randint(0, 4)
        if len(triples) % 4:
            base = tuple(map(max, itertools.zip_longest(mu, nu, fillvalue=0)))
            outer = _add_cells(rng, base, size - sum(base), total)
        elif len(mu) != len(nu):
            if len(mu) > len(nu):
                mu, nu = nu, mu
            rows = rng.randint(len(mu), len(nu) - 1)
            outer = _add_cells(rng, mu, size - sum(mu), rows)
        else:
            continue
        triples.append((mu, nu, outer))
    return triples


class TestLRWalkProperties:
    """Randomized checks of the walk at degrees 14-26, past the oracle."""

    def test_bounded_walk_is_filtered_unbounded_walk(self):
        kept = short = 0
        for mu, nu, outer in _walk_triples(240, seed=1):
            full = _lr_walk(mu, nu)
            # s_lam -> f^lam / |lam|! is a ring map (exponential specialization)
            assert sum(c * _syt_count(lam) for lam, c in full.items()) == comb(
                sum(mu) + sum(nu), sum(mu)
            ) * _syt_count(mu) * _syt_count(nu), (mu, nu)
            box = P(outer)
            inside = {lam: c for lam, c in full.items() if box.contains(P(lam))}
            assert _lr_walk(mu, nu, outer) == inside, (mu, nu, outer)
            # c^lam_{nu,mu} = c^lam_{mu,nu}; every fourth outer misses nu
            assert _lr_walk(nu, mu, outer) == inside, (nu, mu, outer)
            kept += 0 < len(inside) < len(full)
            short += len(outer) < len(nu)
        assert kept >= 100 and short >= 60

    def test_walk_nests_one_frame_per_letter(self):
        # 60 one-cell letters: at most 63 Python frames deep, so only inputs
        # about as tall as the recursion limit reach the CLI's refusal
        depth = deepest = 0

        def count(frame, event, arg):
            nonlocal depth, deepest
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1

        sys.setprofile(count)
        try:
            terms = _lr_walk((1,) * 60, (1,) * 60)
        finally:
            sys.setprofile(None)
        assert len(terms) == 61 and deepest <= 63

    def test_product_coefficient_matches_multi_product(self):
        rng = random.Random(2)
        for _ in range(40):
            count = rng.randint(3, 4)
            degree = rng.randint(count, 16)
            cuts = sorted(rng.sample(range(1, degree), count - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
            factors = [rng.choice(all_partitions(size)) for size in sizes]
            product = multi_schur_product(factors)
            parts = [f.parts for f in factors]
            for lam in all_partitions(degree):
                assert _product_coefficient(lam.parts, parts) == product.coefficient(
                    lam
                ), (parts, lam)

    def test_walk_leaves_no_cyclic_garbage(self, cyclic_garbage):
        # grow reaches itself through an argument, not a closure cell, so
        # the walk's lists are freed as soon as it returns
        inner, content = (5, 4, 2, 1, 1, 1), (4, 2, 1, 1, 1, 1)
        assert cyclic_garbage(lambda: _lr_walk(inner, content)) == 0
        outer = (8, 6, 4, 3, 2, 2, 1, 1)
        assert _lr_walk(inner, content, outer)
        assert cyclic_garbage(lambda: _lr_walk(inner, content, outer)) == 0


def _accumulate(f, g):
    """f * g on part-tuple terms, one lr_coefficient per shape of the degree,
    zero-free."""
    degree = sum(next(iter(f))) + sum(next(iter(g)))
    acc = defaultdict(int)
    for mu, a in f.items():
        for nu, b in g.items():
            for lam in all_partitions(degree):
                acc[lam.parts] += a * b * lr_coefficient(lam, P(mu), P(nu))
    return {lam: c for lam, c in acc.items() if c}


class TestSchurProduct:
    def test_single_terms_give_the_cached_pair_product(self):
        pairs = 0
        for total in range(9):
            for a in range(total + 1):
                for mu in all_partitions(a):
                    for nu in all_partitions(total - a):
                        got = _product({mu.parts: 1}, {nu.parts: 1})
                        assert got is _pair_product(mu.parts, nu.parts)
                        assert got == _accumulate({mu.parts: 1}, {nu.parts: 1})
                        pairs += 1
        assert pairs == 434  # every (mu, nu) with |mu| + |nu| <= 8, empty ones too

    @pytest.mark.parametrize(
        "f,g",
        [
            ({(2, 1): 2}, {(1, 1): 1}),
            ({(2, 1): 1}, {(2,): -1}),
            ({(3,): -1}, {(1,): -1}),
            ({(2,): 1, (1, 1): 1}, {(2, 1): 1}),
            ({(2, 1): 1}, {(2,): 1, (1, 1): -3}),
        ],
    )
    def test_scaled_or_longer_sides_give_the_scaled_sum(self, f, g):
        assert _product(f, g) == _accumulate(f, g)

    def test_returned_pair_product_refuses_writes(self):
        # the mapping is the lru cache's own entry: a write would corrupt it
        got = _product({(2, 1): 1}, {(1,): 1})
        with pytest.raises(TypeError):
            got[(3, 1)] = 5
        with pytest.raises(TypeError):
            del got[(2, 2)]
        assert dict(got) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}

    def test_pieri_square(self):
        e = schur_product(single(P([1])), single(P([1])))
        assert e == SchurExpansion(2, {P([2]): 1, P([1, 1]): 1})

    def test_unit_identity(self):
        f = schur_product(single(P([3, 1])), single(P([2])))
        assert schur_product(f, SchurExpansion.unit()) == f

    def test_triple_product_support_inside_bound(self):
        f = multi_schur_product([P([3, 2]), P([1, 1]), P([1, 1])])
        bound = P([5, 4, 2, 2, 1, 1])
        assert f.degree == 9
        assert all(bound.contains(lam) for lam in f.support())

    def test_bilinearity(self):
        f = SchurExpansion(2, {P([2]): 2, P([1, 1]): -1})
        g = SchurExpansion(1, {P([1]): 3})
        h = schur_product(f, g)
        assert h.coefficient(P([3])) == 6
        assert h.coefficient(P([2, 1])) == 6 - 3
        assert h.coefficient(P([1, 1, 1])) == -3


class TestExpansionTypes:
    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            SchurExpansion(3, {P([2]): 1})

    def test_drops_zeros(self):
        e = SchurExpansion(2, {P([2]): 0, P([1, 1]): 1})
        assert P([2]) not in e.terms
        assert len(e) == 1

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            SchurExpansion(2, {P([2]): Fraction(1, 2)})
        # zero values of other types are rejected too, not dropped as zeros
        for coeff in (True, False, 0.0, Fraction(0)):
            with pytest.raises(TypeError):
                SchurExpansion(1, {P([1]): coeff})

    def test_sorted_terms_descending_lex(self):
        e = sxp_plethysm(2, P([3, 2]))
        keys = [p.parts for p, _ in e.sorted_terms()]
        assert keys == sorted(keys, reverse=True)
        assert keys[0] == (6, 4)

    def test_repr_lists_sorted_terms(self):
        e = SchurExpansion(3, {P([2, 1]): 2, P([1, 1, 1]): -1, P([3]): 1})
        assert repr(e) == "SchurExpansion(degree=3, 1*s[3] + 2*s[2, 1] + -1*s[1, 1, 1])"
        assert repr(SchurExpansion(2, {})) == "SchurExpansion(degree=2, 0)"

    def test_json_coeffs_are_strings(self):
        obj = single(P([2, 1])).to_json_obj()
        assert obj == {"degree": 3, "terms": [{"partition": [2, 1], "coeff": "1"}]}

    def test_rejects_non_partition_keys(self):
        for key in ((2,), [2], "2"):
            with pytest.raises(TypeError, match=type(key).__name__):
                SchurExpansion(2, {key: 1})

    def test_coefficient_outside_support_is_zero(self):
        e = sxp_plethysm(2, P([2, 1]))
        for lam in all_partitions(6):
            if lam not in e.terms:
                assert e.coefficient(lam) == 0
        assert e.coefficient(P([7])) == 0  # wrong degree
        assert SchurExpansion(0, {}).coefficient(P()) == 0

    def test_json_keeps_sorted_terms_order(self):
        for e in (
            sxp_plethysm(3, P([2, 1])),
            schur_product(single(P([3, 1])), single(P([2, 2]))),
            SchurExpansion(3, {P([1, 1, 1]): 2, P([3]): -1, P([2, 1]): 5}),
        ):
            assert e.to_json_obj()["terms"] == [
                {"partition": lam.to_list(), "coeff": str(c)}
                for lam, c in e.sorted_terms()
            ]


class TestCharacter:
    def test_trivial_character(self):
        for rho in all_partitions(5):
            assert character(P([5]), rho) == 1

    def test_sign_on_transposition(self):
        assert character(P([1, 1]), P([2])) == -1

    def test_staircase_regular_class(self):
        assert character(P([2, 1]), P([1, 1, 1])) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character(P([2]), P([3]))

    def test_orthogonality(self):
        for n in range(1, 10):
            ps = all_partitions(n)
            chi = {(mu, rho): character(mu, rho) for mu in ps for rho in ps}
            for mu, nu in itertools.combinations_with_replacement(ps, 2):
                total = Fraction(0)
                for rho in ps:
                    total += Fraction(chi[mu, rho] * chi[nu, rho], z_of(rho))
                assert total == (1 if mu == nu else 0)

    def test_table_and_character_match_lr_power_sums(self):
        # p_k is the alternating sum of the k-hooks (Macdonald I.3 Ex. 11) and
        # chi^lam(rho) is the coefficient of s_lam in p_rho (I.7); the products
        # run through the LR walk, which shares no code with quotients._rim_hooks
        def p(k):
            return SchurExpansion(k, {P([k - a] + [1] * a): (-1) ** a for a in range(k)})

        for n in range(11):
            parts, index, rows, _ = _table(n)
            for j, rho in enumerate(parts):
                p_rho = SchurExpansion.unit()
                for k in rho:
                    p_rho = schur_product(p_rho, p(k))
                for lam in parts:
                    chi = p_rho.coefficient(lam)
                    assert rows[index[lam.parts]][j] == chi, (lam, rho)
                    assert character(lam, rho) == chi, (lam, rho)

    def test_table_memo_agrees_with_fresh(self):
        # two derivations of Murnaghan-Nakayama: the oracle grows each table
        # from smaller ones on rho's smallest part, and character recurses on
        # its largest part from an empty memo
        for n in range(12):
            parts, index, rows, _ = _table(n)
            for mu in parts:
                row = rows[index[mu.parts]]
                assert row == tuple(character(mu, rho) for rho in parts), (n, mu)


class TestZ:
    def test_values(self):
        assert z_of(P([1, 1, 1])) == 6
        assert z_of(P([3, 1])) == 3
        assert z_of(P()) == 1
        assert z_of(P([2, 2])) == 8

    def test_matches_multiplicity_formula(self):
        # z_of reads run lengths; the reference counts each part value
        for n in range(16):
            for rho in all_partitions(n):
                want = 1
                for i in set(rho.parts):
                    m = rho.parts.count(i)
                    want *= i**m * factorial(m)
                assert z_of(rho) == want, rho

    def test_class_equation(self):
        # sum over classes of n!/z equals n!
        for n in range(1, 9):
            assert sum(factorial(n) // z_of(rho) for rho in all_partitions(n)) == factorial(n)


class TestBasisChange:
    """The oracle's Schur <-> power-sum basis change, the package's only one.
    Power-sum vectors are scaled integers keyed by part tuples."""

    def test_e2_expansion(self):
        # 2! e_2 = p_{1,1} - p_2
        assert _schur_in_p(P([1, 1])) == {(1, 1): 1, (2,): -1}

    def test_round_trip(self):
        for n in range(7):
            for mu in all_partitions(n):
                back = _p_to_schur(n, _schur_in_p(mu), factorial(n))
                assert back == SchurExpansion(n, {mu: 1})

    def test_p2_in_schur(self):
        back = _p_to_schur(2, {(2,): 1}, 1)
        assert back == SchurExpansion(2, {P([2]): 1, P([1, 1]): -1})

    def test_non_integral_rejected(self):
        # p_2 / 2 has coefficient 1/2 on s_2
        with pytest.raises(NonIntegralResultError):
            _p_to_schur(2, {(2,): 1}, 2)


class TestSxpPlethysm:
    def test_identity_exponent(self, monkeypatch):
        # p_1 o s_lam = s_lam is returned without walking any n-quotient
        import schurkit.schur

        def no_walk(*args):
            raise AssertionError("p_1 o s_lam walked the n-quotients")

        monkeypatch.setattr(schurkit.schur, "_quotient_walk", no_walk)
        sxp_plethysm.cache_clear()
        for size in range(11):
            for lam in all_partitions(size):
                assert sxp_plethysm(1, lam) == single(lam)

    def test_walk_bound_is_reachable(self):
        # the walk runs at n = MAX_WALK_N itself, from any caller's stack:
        # p_n o s_1 = p_n is the sum of (-1)^b s_(n-b, 1^b)
        n = MAX_WALK_N
        hooks = {P([n - b] + [1] * b): (-1) ** b for b in range(n)}
        assert sxp_plethysm(n, P([1])) == SchurExpansion(n, hooks)

    def test_p2_on_single_box(self):
        assert sxp_plethysm(2, P([1])) == SchurExpansion(
            2, {P([2]): 1, P([1, 1]): -1}
        )

    def test_degree(self):
        assert sxp_plethysm(3, P([2, 1])).degree == 9

    def test_extreme_coefficients(self):
        lam, n = P([2, 1]), 3
        e = sxp_plethysm(n, lam)
        top = lam + lam + lam
        bottom = lam.union(lam).union(lam)
        assert e.coefficient(top) == 1
        assert e.coefficient(bottom) == (-1) ** (lam.size * (n - 1))

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            sxp_plethysm(0, P([1]))


def _partition_tuples(n, total):
    """All n-tuples of partitions with sizes summing to total: the
    n-quotients of the partitions of n * total with empty n-core."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first_size in range(total + 1):
        for q in all_partitions(first_size):
            for rest in _partition_tuples(n - 1, total - first_size):
                yield (q,) + rest


def _sxp_all_tuples(n, lam):
    """p_n o s_lam by the SXP rule over every n-quotient of size |lam|, one
    product pairing per tuple, with mu and its sign from reconstruct and
    sxp_sign: the loop sxp_plethysm's pruned walk replaced, kept as its
    reference."""
    terms = {}
    for tup in _partition_tuples(n, lam.size):
        coeff = _product_coefficient(lam.parts, [q.parts for q in tup])
        if coeff:
            mu = reconstruct(n, P(), tup)
            terms[mu] = coeff * sxp_sign(mu, n)
    return SchurExpansion(n * lam.size, terms)


class TestSxpAllTuples:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_all_tuples_loop(self, n):
        # every n|lam| <= 18
        for size in range(18 // n + 1):
            for lam in all_partitions(size):
                assert sxp_plethysm(n, lam) == _sxp_all_tuples(n, lam), (n, lam)


def _sxp_linear(n, f):
    """p_n o f for a Schur expansion f, extended linearly."""
    acc = defaultdict(int)
    for mu, c in f.terms.items():
        for nu, d in sxp_plethysm(n, mu).terms.items():
            acc[nu] += c * d
    return SchurExpansion(n * f.degree, acc)


# n|lam| from 20 to 30, past the oracle sweep's degree 9
SXP_BIG = [
    (2, P([5, 3, 2])),
    (2, P([6, 4, 3, 1, 1])),
    (2, P([4, 4, 3, 2, 1, 1])),
    (3, P([4, 3, 1])),
    (3, P([5, 4, 1])),
    (3, P([3, 3, 2, 1, 1])),
    (4, P([3, 2, 1])),
    (4, P([2, 2, 2, 1])),
    (5, P([2, 2, 1, 1])),
    (6, P([2, 2, 1])),
]


class TestSxpPastOracle:
    """Exact identities that check whole SXP expansions at degrees 16-30,
    past the oracle sweep's degree 9."""

    @pytest.mark.parametrize(
        "n,m,lam",
        [
            (2, 2, P([2, 2])),
            (2, 2, P([3, 1, 1])),
            (2, 2, P([3, 2, 1])),
            (2, 2, P([2, 2, 1, 1])),
            (2, 3, P([2, 1])),
            (2, 3, P([2, 2])),
            (3, 2, P([2, 1])),
            (3, 2, P([3, 1])),
            (3, 2, P([2, 1, 1])),
        ],
    )
    def test_composition(self, n, m, lam):
        # p_n o (p_m o s_lam) = p_{nm} o s_lam, degrees 16-24
        assert _sxp_linear(n, sxp_plethysm(m, lam)) == sxp_plethysm(n * m, lam)

    @pytest.mark.parametrize("n,lam", SXP_BIG)
    def test_principal_specialization(self, n, lam):
        # (p_n o f)(1^k) = f(1^k), since p_n(1^k) = k; degrees 20-30
        e = sxp_plethysm(n, lam)
        for k in (1, 2, 3, 5, 8, 13):
            got = sum(c * principal(mu, k) for mu, c in e.terms.items())
            assert got == principal(lam, k)

    @pytest.mark.parametrize("n,lam", [case for case in SXP_BIG if case[0] <= 4])
    def test_every_coefficient_at_a_random_point(self, n, lam):
        # (p_n o s_lam)(x) = s_lam(x_1^n, ..., x_k^n); k <= 16 here, while
        # n = 5 and 6 would need k = 20 and 18, at about 1 s each
        left, right = _sxp_sides(n, lam.parts, sxp_plethysm(n, lam)._parts)
        assert left == right

    def test_random_point_catches_one_moved_unit(self):
        # one unit moved from a term of coefficient >= 2 to a positive term
        # keeps the support and the coefficient sum; the point check sees it
        n, lam = SXP_BIG[0]
        terms = dict(sxp_plethysm(n, lam)._parts)
        a = next(mu for mu, c in terms.items() if c >= 2)
        b = next(mu for mu, c in terms.items() if mu != a and c > 0)
        terms[a] -= 1
        terms[b] += 1
        left, right = _sxp_sides(n, lam.parts, terms)
        assert left != right


def _rho_sum(mu, nu):
    """s_mu o s_nu on part tuples as the rho sum over (mu, nu) as given, never
    walked as the conjugate: the reference for schur_plethysm's flip."""
    acc = defaultdict(int)
    for rho, weight in _plethysm_weights(mu):
        for lam, c in _power_plethysm(rho, nu).items():
            acc[lam] += weight * c
    scale = factorial(sum(mu))
    assert all(val % scale == 0 for val in acc.values())
    return {lam: val // scale for lam, val in acc.items() if val}


class TestSchurPlethysm:
    def test_identity(self):
        for nu in all_partitions(4):
            assert schur_plethysm(P([1]), nu) == single(nu)

    def test_e2_of_h2(self):
        assert schur_plethysm(P([1, 1]), P([2])) == single(P([3, 1]))

    def test_h2_of_e2(self):
        assert schur_plethysm(P([2]), P([1, 1])) == SchurExpansion(
            4, {P([2, 2]): 1, P([1, 1, 1, 1]): 1}
        )

    def test_support_size_40(self):
        e = schur_plethysm(P([1, 1]), P([4, 2, 2]))
        assert len(e) == 40

    def test_empty_outer(self):
        assert schur_plethysm(P(), P([2, 1])) == SchurExpansion.unit()

    def test_empty_inner(self):
        assert schur_plethysm(P([3]), P()) == SchurExpansion.unit()
        assert schur_plethysm(P([2, 1]), P()) == SchurExpansion(0, {})

    def test_no_walk_with_an_empty_factor(self, monkeypatch):
        # each p_rho piece is folded from its first sxp factor, not the unit
        import schurkit.schur

        empty = []

        def recording(inner, content, outer=None):
            empty.append(not inner or not content)
            return _lr_walk(inner, content, outer)

        monkeypatch.setattr(schurkit.schur, "_lr_walk", recording)
        for cached in (_pair_product, _power_plethysm, sxp_plethysm):
            cached.cache_clear()
        for mu in (P([2]), P([1, 1]), P([3]), P([2, 1]), P([2, 2])):
            for nu in (P([3]), P([2]), P([1, 1]), P([2, 1])):
                schur_plethysm(mu, nu)
        assert len(empty) > 100
        assert not any(empty)

    def test_inner_factor_of_size_at_most_one(self, monkeypatch):
        # s_mu o s_1 = s_mu and s_mu o s_() = [len(mu) <= 1], answered without
        # the rho sum, which stays the reference for both identities
        import schurkit.schur

        called = []

        def recording(rho, nu):
            called.append((rho, nu))
            return _power_plethysm(rho, nu)

        monkeypatch.setattr(schurkit.schur, "_power_plethysm", recording)
        mus = [mu for m in range(9) for mu in all_partitions(m)]
        assert len(mus) == 67
        for mu in mus:
            for nu in (P(), P([1])):
                e = schur_plethysm(mu, nu)
                if nu:
                    want = {mu.parts: 1}
                else:
                    want = {(): 1} if len(mu) <= 1 else {}
                assert e.degree == mu.size * nu.size
                assert e._parts == want, (mu, nu)
                assert want == _rho_sum(mu.parts, nu.parts), (mu, nu)
        assert not called

    def test_remainder_raises(self, monkeypatch):
        # keep only the rho = (2) piece of s_2 o s_2: its weight
        # chi^(2)((2)) * 2!/z_(2) = 1 leaves 1/2 on s_2
        import schurkit.schur

        def one_piece(rho, nu):
            return {(2,): 1} if rho == (2,) else {}

        monkeypatch.setattr(schurkit.schur, "_power_plethysm", one_piece)
        with pytest.raises(NonIntegralResultError):
            schur_plethysm(P([2]), P([2]))

    def test_remainder_names_the_output_partition(self, monkeypatch):
        # s_2 o s_11 runs on nu' = (2); the error names (3,1)' = (2,1,1), the
        # index of the answer's term, not the conjugate the sum ran on
        import schurkit.schur

        def one_piece(rho, nu):
            return {(3, 1): 1} if rho == (2,) else {}

        monkeypatch.setattr(schurkit.schur, "_power_plethysm", one_piece)
        with pytest.raises(NonIntegralResultError, match=r"s_\[2, 1, 1\] is 1/2"):
            schur_plethysm(P([2]), P([1, 1]))

    def test_tall_nu_is_walked_as_its_conjugate(self, monkeypatch):
        # the rho sum receives nu' exactly when nu has more rows than columns;
        # a nu of size 0 or 1 is answered by identity and reaches no sum
        import schurkit.schur

        seen = []

        def recording(rho, nu):
            seen.append(nu)
            return _power_plethysm(rho, nu)

        monkeypatch.setattr(schurkit.schur, "_power_plethysm", recording)
        for nu in (P(), P([1])):
            schur_plethysm(P([2, 1]), nu)
        assert not seen
        for nu in (nu for n in range(2, 8) for nu in all_partitions(n)):
            seen.clear()
            schur_plethysm(P([2, 1]), nu)
            want = nu.conjugate() if nu[0] < len(nu) else nu
            assert set(seen) == {want.parts}, nu

    def test_flip_matches_the_unflipped_sum(self):
        # every tall nu with |mu||nu| <= 14, against the sum run on nu itself
        tall = [nu for n in range(1, 15) for nu in all_partitions(n) if nu[0] < len(nu)]
        checked = 0
        for mu in (mu for m in range(1, 5) for mu in all_partitions(m)):
            for nu in tall:
                if mu.size * nu.size <= 14:
                    assert schur_plethysm(mu, nu)._parts == _rho_sum(mu.parts, nu.parts)
                    checked += 1
        assert checked == 285

    def test_no_cyclic_garbage(self, cyclic_garbage):
        # the LR and quotient walks under the products and plethysms free
        # their working set on return, so the cyclic collector finds nothing
        for cached in (_pair_product, _power_plethysm, sxp_plethysm):
            cached.cache_clear()
        factors = [P([3, 2, 1]), P([2, 1]), P([2])]
        assert cyclic_garbage(lambda: multi_schur_product(factors)) == 0
        assert cyclic_garbage(lambda: sxp_plethysm.__wrapped__(3, P([2, 1]))) == 0
        assert cyclic_garbage(lambda: schur_plethysm(P([2, 1]), P([2, 1]))) == 0


class TestSchurPlethysmPastOracle:
    """Exact identities that check whole plethysms at degrees 18-30, past the
    oracle sweep's degree 12."""

    PAIRS = [
        (P([2]), P([6, 5, 4])),
        (P([1, 1]), P([8, 4, 2, 1])),
        (P([2]), P([4, 2, 2, 1, 1])),
        (P([1, 1]), P([5, 3, 2, 1])),
        (P([3]), P([3, 2, 1])),
        (P([2, 1]), P([5, 2])),
        (P([1, 1, 1]), P([4, 2, 1])),
        (P([2, 2]), P([3, 3])),
        (P([3, 1]), P([3, 2])),
        (P([2, 1, 1]), P([3, 1, 1])),
        (P([1, 1, 1, 1]), P([7])),
    ]

    @pytest.mark.parametrize("mu,nu", PAIRS)
    def test_principal_specialization(self, mu, nu):
        # (s_mu o s_nu)(1^k) = s_mu(x_1, ..., x_N) at the N = s_nu(1^k)
        # monomials of s_nu in k variables, all set to 1
        e = schur_plethysm(mu, nu)
        for k in (1, 2, 3, 5, 8):
            got = sum(c * principal(lam, k) for lam, c in e.terms.items())
            assert got == principal(mu, principal(nu, k))

    @pytest.mark.parametrize("mu,nu", PAIRS)
    def test_omega_symmetry(self, mu, nu):
        # omega(s_mu o s_nu) = s_mu o s_nu' for |nu| even and s_mu' o s_nu'
        # for |nu| odd (Macdonald I.8 Ex. 1); omega conjugates every index.
        # schur_plethysm itself runs a tall nu through this identity, so the
        # right side is the rho sum on nu', never flipped back
        outer = mu if nu.size % 2 == 0 else mu.conjugate()
        e = schur_plethysm(mu, nu)
        conj = {lam.conjugate().parts: c for lam, c in e.terms.items()}
        assert conj == _rho_sum(outer.parts, nu.conjugate().parts)

    @pytest.mark.parametrize("mu,nu", PAIRS)
    def test_every_coefficient_at_a_random_point(self, mu, nu):
        # k = |mu| len(nu) <= 12 variables here; the principal
        # specialization sets at most 8 and omega maps lam to lam', so a term
        # with 9+ rows and a first row of 9+ is seen only here
        terms = schur_plethysm(mu, nu)._parts
        left, right = _plethysm_sides(mu.parts, nu.parts, terms)
        assert left == right

    def test_random_point_catches_one_moved_unit(self):
        # one unit moved from a term of coefficient >= 2 to another term
        # keeps the support and the coefficient sum; the point check sees it
        mu, nu = self.PAIRS[6]  # s_111 o s_421, degree 21
        terms = dict(schur_plethysm(mu, nu)._parts)
        a = next(lam for lam, c in terms.items() if c >= 2)
        b = next(lam for lam in terms if lam != a)
        terms[a] -= 1
        terms[b] += 1
        left, right = _plethysm_sides(mu.parts, nu.parts, terms)
        assert left != right


class TestBoundary:
    """Expansions keep their terms on part tuples without trailing zeros, the
    kernel's own dicts; a Partition-keyed view is built when a caller reads
    ``terms``, ``support()`` or ``sorted_terms()``."""

    def test_public_results_have_partition_keys(self):
        results = [
            schur_product(single(P([2, 1])), single(P([3, 1]))),
            multi_schur_product([P([2, 1]), P([1, 1]), P([2])]),
            multi_schur_product([]),
            sxp_plethysm(3, P([2, 1])),
            sxp_plethysm(1, P([2, 1])),
            schur_plethysm(P([2, 1]), P([2, 1])),
        ]
        for e in results:
            assert len(e) > 0
            assert all(type(lam) is Partition for lam in e.terms)

    @pytest.mark.parametrize(
        "terms",
        [
            lambda: _pair_product((3, 1), (2, 1, 1)),
            lambda: _pair_product((), (2, 1)),
            lambda: _pair_product((2,), ()),
            lambda: _power_plethysm((2, 1), (2, 1)),
            lambda: _power_plethysm((3,), (1, 1)),
            lambda: _power_plethysm((), (2,)),
            # an expansion's own terms, as the sxp lru cache holds them
            lambda: sxp_plethysm(3, P([2, 1]))._parts,
            lambda: sxp_plethysm(2, P([3, 1, 1]))._parts,
        ],
    )
    def test_kernel_keys_are_canonical_tuples(self, terms):
        keys = list(terms())
        assert keys
        for lam in keys:
            assert type(lam) is tuple
            assert all(type(x) is int and x > 0 for x in lam)
            assert list(lam) == sorted(lam, reverse=True)

    def test_kernel_and_public_constructor_agree(self):
        s1 = single(P([1]))
        kernel = schur_product(s1, s1)
        public = SchurExpansion(2, {P([2]): 1, P([1, 1]): 1})
        assert kernel == public and public == kernel
        assert hash(kernel) == hash(public)
        assert kernel.terms == public.terms
        assert kernel != SchurExpansion(2, {P([2]): 1, P([1, 1]): -1})
        # hashes like its Partition-keyed terms, since hash(Partition) is hash(parts)
        assert hash(public) == hash((2, frozenset(public.terms.items())))

    def test_terms_is_built_once(self):
        e = schur_product(single(P([2, 1])), single(P([1])))
        first = e.terms
        assert e.terms is first
        assert dict(first) == {P([3, 1]): 1, P([2, 2]): 1, P([2, 1, 1]): 1}
        assert e.support() == frozenset(first)
