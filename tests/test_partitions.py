import itertools
import random
from math import factorial, prod

import pytest

from schurkit import (
    InfiniteRegionError,
    Partition,
    Point,
    all_partitions,
    character,
    ideal_complement,
    minkowski_sum,
    outer_corners,
    partitions_of,
    z_of,
)
from schurkit.partitions import _conjugate

P = Partition


def _class_weights(lam):
    """(rho, |C_rho| chi^lam(rho)) over the cycle types rho of |lam|, so that
    |lam|! s_lam = sum of |C_rho| chi^lam(rho) p_rho."""
    n = lam.size
    return [
        (rho.parts, factorial(n) // z_of(rho) * character(lam, rho))
        for rho in all_partitions(n)
    ]


def _hook_count(lam, weights, r, c):
    """divmod(|lam|! hs_lam(1^r; 1^c), |lam|!): s_lam on r positive and c
    negative letters, all set to 1, where p_k becomes r + (-1)^(k-1) c."""
    total = sum(w * prod(r + (-1) ** (k - 1) * c for k in rho) for rho, w in weights)
    return divmod(total, factorial(lam.size))


def _contains_loop(outer, inner):
    """Containment by per-index loop: the reference Partition.contains is
    checked against."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def _dominates_loop(a, b):
    """Dominance by running prefix sums over the longer length: the reference
    Partition.dominates is checked against (equal sizes only)."""
    x = y = 0
    for i in range(max(len(a), len(b))):
        x += a[i]
        y += b[i]
        if x < y:
            return False
    return True


class TestConstruction:
    def test_strips_trailing_zeros(self):
        assert P([3, 2, 0, 0]) == P([3, 2])
        assert P([0, 0]) == P()

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            P([2, 3])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            P([3, -1])

    def test_size_and_indexing(self):
        lam = P([3, 2])
        assert lam.size == 5
        assert lam[0] == 3 and lam[1] == 2 and lam[2] == 0 and lam[99] == 0
        assert len(lam) == 2
        for row in (-1, -3):
            with pytest.raises(IndexError, match="non-negative"):
                P([2])[row]

    def test_truth_value(self):
        # truth comes from __len__: false exactly when no part is positive
        assert not P() and not P([0, 0])
        assert P([1]) and P([3, 2])

    def test_rejects_non_integer_parts(self):
        # parts convert with operator.index: floats are not truncated and
        # strings are not parsed
        for parts in ([2.7, 1.2], ["3", "1"], [2, 1.0]):
            with pytest.raises(TypeError):
                P(parts)
        assert type(P([True])[0]) is int  # a bool part is stored as the int 1

    def test_hash_and_eq(self):
        assert hash(P([3, 2])) == hash(P((3, 2)))
        assert P([3, 2]) != P([3, 2, 1])


class TestContains:
    def test_nested_chain(self):
        assert P([8, 5, 3, 2, 1, 1, 1]).contains(P([3, 2]))

    def test_empty_in_empty(self):
        assert P().contains(P())

    def test_single_row_misses_two_rows(self):
        assert not P([10]).contains(P([3, 2]))

    def test_antisymmetry_exhaustive(self):
        for n in range(7):
            for lam in all_partitions(n):
                for mu in all_partitions(n):
                    if lam.contains(mu) and mu.contains(lam):
                        assert lam == mu

    def test_matches_index_loop(self):
        # every pair of size <= 8, sizes mixed: the empty partition, unequal
        # lengths and inner longer than outer all occur
        parts = [lam for n in range(9) for lam in all_partitions(n)]
        for outer, inner in itertools.product(parts, parts):
            assert outer.contains(inner) == _contains_loop(outer, inner), (outer, inner)


class TestConjugate:
    def test_small(self):
        assert P([3, 2]).conjugate() == P([2, 2, 1])

    def test_empty(self):
        assert P().conjugate() == P()

    def test_column_bound_case(self):
        assert P([7, 4, 3, 2, 2, 1, 1, 1, 1, 1]).conjugate() == P([10, 5, 3, 2, 1, 1, 1])

    def test_involution_exhaustive(self):
        for n in range(13):
            for lam in all_partitions(n):
                assert lam.conjugate().conjugate() == lam

    def test_matches_counting_definition(self):
        # column c has as many cells as there are parts >= c
        for n in range(13):
            for lam in all_partitions(n):
                width = lam[0]
                counts = [sum(1 for p in lam if p >= c) for c in range(1, width + 1)]
                assert lam.conjugate() == P(counts), lam

    def test_parts_rule_matches_the_generator_rule(self):
        # column c has length h for lam[h] < c <= lam[h - 1]: the rule the
        # part-counting _conjugate replaced
        def by_heights(lam):
            heights = range(len(lam), 0, -1)
            return tuple(h for h in heights for _ in range(lam[h - 1] - lam[h]))

        assert _conjugate(()) == ()
        for n in range(13):
            for lam in all_partitions(n):
                assert _conjugate(lam.parts) == by_heights(lam), lam

    def test_size_row_bound_is_self_conjugate(self):
        # (n, n//2, n//3, ...) has n//c parts >= c; at this width a
        # length x width conjugate would take minutes
        n = 50_000
        caps = P([n // r for r in range(1, n + 1)])
        assert caps.conjugate() == caps


class TestSumUnion:
    def test_extreme_terms(self):
        assert P([3, 2]) + P([3, 2]) == P([6, 4])
        assert P([3, 2]).union(P([3, 2])) == P([3, 3, 2, 2])

    def test_union_identity(self):
        assert P([4, 1]).union(P()) == P([4, 1])

    def test_sum_partwise(self):
        assert P([2, 1]) + P([1, 1]) == P([3, 2])

    def test_sizes_add(self):
        for lam, mu in itertools.product(all_partitions(4), all_partitions(3)):
            assert (lam + mu).size == 7
            assert lam.union(mu).size == 7

    def test_match_definitions_in_both_orders(self):
        # both build their result unchecked, so each is held to the
        # definition and to what the validating constructor accepts
        for a in range(9):
            for b in range(9 - a):
                for lam, mu in itertools.product(all_partitions(a), all_partitions(b)):
                    summed = [lam[r] + mu[r] for r in range(max(len(lam), len(mu)))]
                    merged = sorted(lam.parts + mu.parts, reverse=True)
                    for got, parts in ((lam + mu, summed), (mu + lam, summed),
                                       (lam.union(mu), merged), (mu.union(lam), merged)):
                        assert got.parts == tuple(parts), (lam, mu)
                        assert got.size == a + b
                        assert not got.parts or got.parts[-1] > 0
                        assert P(parts) == got


class TestDominance:
    def test_examples(self):
        assert P([6, 4]).dominates(P([3, 3, 2, 2]))
        assert P([4, 3, 3]).dominates(P([3, 3, 3, 1]))

    def test_reflexive(self):
        for lam in all_partitions(6):
            assert lam.dominates(lam)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            P([2]).dominates(P([2, 1]))
        parts = [lam for n in range(5) for lam in all_partitions(n)]
        for a, b in itertools.product(parts, parts):
            if a.size != b.size:
                with pytest.raises(ValueError, match="equal size"):
                    a.dominates(b)

    def test_matches_prefix_sum_loop(self):
        # every pair of equal size <= 10, the empty partition included
        for n in range(11):
            parts = all_partitions(n)
            for a, b in itertools.product(parts, parts):
                assert a.dominates(b) == _dominates_loop(a, b), (a, b)

    def test_is_partial_order(self):
        parts = all_partitions(6)
        for a, b in itertools.product(parts, parts):
            if a.dominates(b) and b.dominates(a):
                assert a == b
        for a, b, c in itertools.combinations(parts, 3):
            if a.dominates(b) and b.dominates(c):
                assert a.dominates(c)


class TestOuterCorners:
    def test_known_sets(self):
        assert outer_corners(P([3, 3, 1])) == {Point(0, 3), Point(1, 2), Point(3, 0)}
        assert outer_corners(P([3, 2])) == {Point(0, 2), Point(2, 1), Point(3, 0)}
        assert outer_corners(P()) == {Point(0, 0)}

    def _added(self, lam, p):
        rows = list(lam.parts)
        while len(rows) <= p.r:
            rows.append(0)
        rows[p.r] += 1
        return rows

    def test_corners_are_exactly_the_addable_cells(self):
        for n in range(9):
            for lam in all_partitions(n):
                corners = outer_corners(lam)
                assert all(p.c >= lam[p.r] for p in corners)
                # scan a window just past the diagram
                for c in range(lam[0] + 2):
                    for r in range(len(lam) + 2):
                        p = Point(c, r)
                        if p.c < lam[p.r]:
                            continue
                        rows = self._added(lam, p)
                        addable = p.c == lam[p.r] and all(
                            a >= b for a, b in zip(rows, rows[1:])
                        )
                        assert (p in corners) == addable

    def test_antichain(self):
        for n in range(9):
            for lam in all_partitions(n):
                corners = outer_corners(lam)
                for p, q in itertools.permutations(corners, 2):
                    assert not (p.c <= q.c and p.r <= q.r)


class TestMinkowski:
    def test_triple_worked_example(self):
        s = minkowski_sum(
            outer_corners(P([3, 2])), outer_corners(P([1, 1]))
        )
        s = minkowski_sum(s, outer_corners(P([1, 1])))
        assert s == {
            Point(0, 6), Point(1, 4), Point(2, 2), Point(2, 5), Point(3, 3),
            Point(4, 1), Point(3, 4), Point(4, 2), Point(5, 0),
        }

    def test_identity_element(self):
        s = outer_corners(P([4, 2]))
        assert minkowski_sum(s, {Point(0, 0)}) == s

    def test_duplicate_collapse(self):
        s = frozenset({Point(0, 2), Point(1, 0)})
        assert minkowski_sum(s, s) == {Point(0, 4), Point(1, 2), Point(2, 0)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minkowski_sum(set(), {Point(0, 0)})

    def test_commutative_associative_random(self):
        rng = random.Random(7)
        for _ in range(50):
            sets = [
                frozenset(
                    Point(rng.randrange(5), rng.randrange(5))
                    for _ in range(rng.randrange(1, 5))
                )
                for _ in range(3)
            ]
            a, b, c = sets
            assert minkowski_sum(a, b) == minkowski_sum(b, a)
            assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
                a, minkowski_sum(b, c)
            )


class TestIdealComplement:
    def test_three_generators(self):
        assert ideal_complement({Point(1, 3), Point(0, 4), Point(2, 0)}) == P([2, 2, 2, 1])

    def test_nine_point_sum(self):
        pts = {
            Point(0, 6), Point(1, 4), Point(2, 2), Point(2, 5), Point(3, 3),
            Point(4, 1), Point(3, 4), Point(4, 2), Point(5, 0),
        }
        assert ideal_complement(pts) == P([5, 4, 2, 2, 1, 1])

    def test_origin_only(self):
        assert ideal_complement({Point(0, 0)}) == P()

    def test_infinite_region(self):
        with pytest.raises(InfiniteRegionError):
            ideal_complement({Point(1, 1)})
        with pytest.raises(InfiniteRegionError):
            ideal_complement(set())

    def test_round_trip_exhaustive(self):
        for n in range(13):
            for lam in all_partitions(n):
                assert ideal_complement(outer_corners(lam)) == lam

    def test_random_generators_brute_force(self):
        # duplicates and dominated generators included: (c, r) is a cell
        # exactly when no generator is <= it coordinate-wise
        rng = random.Random(13)
        for _ in range(300):
            gens = [Point(0, rng.randrange(1, 7)), Point(rng.randrange(1, 7), 0)]
            gens += [Point(rng.randrange(7), rng.randrange(7)) for _ in range(rng.randrange(8))]
            gens += rng.choices(gens, k=2)  # duplicates
            lam = ideal_complement(gens)
            for c, r in itertools.product(range(8), repeat=2):
                outside = any(g.c <= c and g.r <= r for g in gens)
                assert (c < lam[r]) != outside, (gens, c, r)


class TestPointMembership:
    """(c, r) lies outside [lam] exactly when s_lam on r positive and c
    negative letters is nonzero: the (r, c)-hook theorem of Berele and
    Regev, which the Minkowski-corner and SXP bounds rest on.  Checked by
    the exact count hs_lam(1^r; 1^c), with no tableau witness."""

    def _count(self, lam, r, c):
        return _hook_count(lam, _class_weights(lam), r, c)[0]

    def test_examples(self):
        assert self._count(P([3, 3, 3, 1]), 3, 1) > 0
        assert self._count(P(), 0, 0) == 1
        assert self._count(P([3, 3, 1]), 2, 0) == 0
        # s_(3,2)(1, 1) = 2; hs_(2)(1; 1) = h_2 + h_1 e_1 + e_2 = 2, and its
        # conjugate (1, 1) the same; s_(1) = r + c
        assert self._count(P([3, 2]), 2, 0) == 2
        assert self._count(P([2]), 1, 1) == self._count(P([1, 1]), 1, 1) == 2
        assert self._count(P([1]), 4, 3) == 7

    def test_evaluation_nonzero_agrees(self):
        # both directions, on a window just past the diagram: the count is a
        # non-negative integer, and positive exactly when lam[r] <= c
        for n in range(13):
            for lam in all_partitions(n):
                weights = _class_weights(lam)
                for r in range(len(lam) + 2):
                    for c in range(lam[0] + 2):
                        count, remainder = _hook_count(lam, weights, r, c)
                        assert remainder == 0 and count >= 0
                        assert (count > 0) == (lam[r] <= c)


class TestGenerators:
    def test_counts(self):
        # p(n) for n = 0..16
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
        for n, want in enumerate(expected):
            assert len(all_partitions(n)) == want

    def test_descending_lex_order(self):
        ps = [p.parts for p in partitions_of(7)]
        assert ps == sorted(ps, reverse=True)

    def test_matches_recursive_reference(self):
        # partitions_of steps from one partition to the next; the recursive
        # generator it replaced is the reference, and each member it builds
        # unchecked must equal the validated Partition of its parts
        def recursive(n):
            def rec(remaining, cap, prefix):
                if remaining == 0:
                    yield tuple(prefix)
                    return
                for first in range(min(cap, remaining), 0, -1):
                    prefix.append(first)
                    yield from rec(remaining - first, first, prefix)
                    prefix.pop()

            yield from rec(n, n, [])

        for n in range(26):
            got = list(partitions_of(n))
            assert [p.parts for p in got] == list(recursive(n)), n
            for p in got:
                assert p == P(p.parts) and p.size == P(p.parts).size == n

    def test_negative_size_is_empty(self):
        assert list(partitions_of(-1)) == []
