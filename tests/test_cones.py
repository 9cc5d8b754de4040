from fractions import Fraction
from itertools import combinations

import pytest

from modelgen import fresh_rng, random_invertible_matrix, random_spanning_model
from oracles import (
    chain_by_full_scan,
    circuits_by_steps,
    decision_pairs,
    echelon_rank_transposed,
    independent_prefixes,
    least_longest_chain,
    longest_chain_by_dp,
    max_reay_by_enumeration,
    random_maximal_chain,
    reay_by_lp,
    spans_by_negations,
    subset_unions,
)
import radrank.cones
import radrank.rank
import radrank.ratlin
from radrank import (
    GeneratorSet,
    PreconditionError,
    ResourceLimitError,
    extract_positive_basis,
    gen_d1,
    gen_d2,
    gen_d3,
    is_positive_basis,
    linear_rank,
    max_weak_reay,
    recover_rank,
)
from radrank.cones import (
    closed_flags, longest_closed_chain, masks_lacking, positively_spans_its_span,
    principal_table,
)
from radrank.ratlin import strict_zero_combination

F = Fraction

E1, E2 = (1, 0), (0, 1)


class TestPositivelySpans:
    def test_line(self):
        assert positively_spans_its_span([(1,), (-1,)])

    def test_quadrant_is_not_plane(self):
        assert not positively_spans_its_span([E1, E2])

    def test_three_vectors_cover_plane(self):
        assert positively_spans_its_span([E1, E2, (-1, -1)])

    def test_empty_set(self):
        assert positively_spans_its_span([])

    def test_invariance(self):
        # permutations, positive scalings, and any invertible matrix must all
        # preserve the verdict
        rng = fresh_rng(salt=20)
        for _ in range(40):
            dim = rng.randrange(1, 4)
            count = rng.randrange(1, 6)
            vecs = [
                tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                for _ in range(count)
            ]
            verdict = positively_spans_its_span(vecs)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            assert positively_spans_its_span(shuffled) == verdict
            factors = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in vecs]
            scaled = [tuple(c * x for x in v) for c, v in zip(factors, vecs)]
            assert positively_spans_its_span(scaled) == verdict
            m = random_invertible_matrix(rng, dim)
            mapped = [
                tuple(
                    sum((row[d] * v[d] for d in range(dim)), F(0)) for row in m
                )
                for v in vecs
            ]
            assert positively_spans_its_span(mapped) == verdict

    def test_matches_the_negation_oracle_on_large_denominators(self):
        # 0-6 vectors in dimension 0-4 from a span of at most the dimension,
        # entries with denominators up to 2^20, with zero vectors, v/-v
        # pairs and repeats; a third end in the negated sum of the others
        rng = fresh_rng(salt=21)

        def rational():
            return F(rng.randint(-(1 << 20), 1 << 20), rng.randint(1, 1 << 20))

        verdicts, shapes = [], set()
        zero = pairs = repeats = 0
        for _ in range(600):
            dim = rng.randint(0, 4)
            basis = [
                tuple(rational() for _ in range(dim))
                for _ in range(rng.randint(min(dim, 1), dim))
            ]
            vecs = []
            for _ in range(rng.randint(0, 6)):
                draw = rng.random()
                if vecs and draw < 0.15:
                    vecs.append(rng.choice(vecs))
                elif vecs and draw < 0.3:
                    vecs.append(tuple(-x for x in rng.choice(vecs)))
                elif draw < 0.4 or not basis:
                    vecs.append(tuple(F(0) for _ in range(dim)))
                else:
                    coeffs = [rational() for _ in basis]
                    vecs.append(tuple(
                        sum(c * b[d] for c, b in zip(coeffs, basis)) for d in range(dim)
                    ))
            if len(vecs) > 1 and rng.random() < 0.35:
                scale = abs(rational()) + F(1, 1 << 20)
                vecs[-1] = tuple(-scale * sum(v[d] for v in vecs[:-1]) for d in range(dim))
            verdict = positively_spans_its_span(vecs)
            assert verdict == spans_by_negations(vecs)
            assert positively_spans_its_span(GeneratorSet.from_vectors(vecs)) == verdict
            verdicts.append((verdict, any(map(any, vecs))))
            shapes.add((dim, len(vecs)))
            zero += any(not any(v) for v in vecs)
            pairs += any(tuple(-x for x in v) in vecs for v in vecs if any(v))
            repeats += len(set(vecs)) < len(vecs)
        # (spans, holds a nonzero vector)
        assert verdicts.count((True, True)) >= 150
        assert verdicts.count((False, True)) >= 150
        assert zero >= 250 and pairs >= 50 and repeats >= 200
        assert {dim for dim, _ in shapes} == set(range(5))
        assert {count for _, count in shapes} == set(range(7))


class TestIsPositiveBasis:
    def test_line_pair(self):
        assert is_positive_basis([(1,), (-1,)], 1)

    def test_redundant_third_vector(self):
        assert not is_positive_basis([(1,), (-1,), (2,)], 1)

    def test_plane_triangle(self):
        assert is_positive_basis([E1, E2, (-1, -1)], 2)

    def test_non_spanning(self):
        assert not is_positive_basis([E1, E2], 2)


class TestExtractPositiveBasis:
    def test_drops_redundant_tail(self):
        got = extract_positive_basis([(1,), (-1,), (2,)], 1)
        assert got.vectors == ((F(1),), (F(-1),))

    def test_fixpoint_on_a_basis(self):
        basis = GeneratorSet.from_vectors([E1, E2, (-1, -1)])
        assert extract_positive_basis(basis, 2) == basis

    def test_four_vectors_to_three(self):
        got = extract_positive_basis([E1, E2, (-1, -1), (-1, 0)], 2)
        assert len(got) == 3
        assert is_positive_basis(got, 2)

    def test_rejects_non_spanning_input(self):
        with pytest.raises(PreconditionError):
            extract_positive_basis([E1, E2], 2)

    def test_zero_dimensional_space_has_the_empty_basis(self):
        empty = GeneratorSet((), ())
        assert extract_positive_basis([(), ()], 0) == empty
        assert extract_positive_basis([], 0) == empty

    def test_result_is_always_a_positive_basis(self):
        rng = fresh_rng(salt=21)
        found = 0
        while found < 25:
            dim = rng.randrange(1, 4)
            count = rng.randrange(dim + 1, 8)
            vecs = [
                tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                for _ in range(count)
            ]
            if not (
                linear_rank(vecs) == dim and positively_spans_its_span(vecs)
            ):
                continue
            found += 1
            got = extract_positive_basis(vecs, dim)
            assert is_positive_basis(got, dim)


class TestMaxWeakReay:
    def test_single_line(self):
        s, blocks = max_weak_reay([(1,), (-1,)])
        assert s == 1
        assert blocks == (frozenset({"g00", "g01"}),)

    def test_two_axes(self):
        s, blocks = max_weak_reay([E1, (-1, 0), E2, (0, -1)])
        assert s == 2
        assert blocks == (
            frozenset({"g00", "g01"}),
            frozenset({"g02", "g03"}),
        )

    def test_triangle_admits_no_split(self):
        s, blocks = max_weak_reay([E1, E2, (-1, -1)])
        assert s == 1

    def test_empty(self):
        assert max_weak_reay([]) == (0, ())

    def test_rejects_non_spanning(self):
        with pytest.raises(PreconditionError):
            max_weak_reay([E1, E2])

    def test_refuses_oversized_input(self):
        vecs = [(1,), (-1,)] * 7  # 14 generators
        labels = [f"v{i:02d}" for i in range(14)]
        with pytest.raises(ResourceLimitError, match="chain search.*WORK_BUDGET"):
            max_weak_reay(GeneratorSet(tuple(labels), tuple(vecs)))

    def test_prefixes_and_dimension_steps(self):
        # every prefix union must be subspace-positive, and each block may
        # raise the span dimension by at most |block| - 1
        cases = [
            [(1,), (-1,)],
            [E1, (-1, 0), E2, (0, -1)],
            [E1, E2, (-1, -1)],
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)],
        ]
        for vecs in cases:
            gens = GeneratorSet.from_vectors(vecs)
            _, blocks = max_weak_reay(gens)
            prefix = frozenset()
            prev_dim = 0
            for block in blocks:
                prefix = prefix | block
                sub = gens.subset(prefix)
                assert positively_spans_its_span(sub.vectors)
                dim = linear_rank(sub.vectors)
                assert dim - prev_dim <= len(block) - 1
                prev_dim = dim

    def test_matches_exhaustive_partition_search(self):
        rng = fresh_rng(salt=22)
        checked = 0
        while checked < 12:
            dim = rng.randrange(1, 3)
            count = rng.randrange(2, 6)
            vecs = [
                tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(count)
            ]
            if not positively_spans_its_span(vecs):
                continue
            checked += 1
            gens = GeneratorSet.from_vectors(vecs)
            s, _ = max_weak_reay(gens)

            def closed(subset):
                return spans_by_negations(gens.subset(subset).vectors)

            assert s == max_reay_by_enumeration(gens.labels, closed)


def _reay_population(rng, count):
    """`count` generator lists: 0-9 vectors in dimension 0-4, drawn from a
    span of at most the dimension, with zero, repeated and negated vectors
    mixed in; half of those with two or more vectors have the last one
    replaced by the negated sum of the others, so that they span."""
    sets = []
    for _ in range(count):
        dim = rng.randint(0, 4)
        basis = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            for _ in range(rng.randint(min(dim, 1), dim))
        ]
        vecs = []
        for _ in range(rng.randint(0, 9)):
            draw = rng.random()
            if vecs and draw < 0.15:
                vecs.append(rng.choice(vecs))
            elif vecs and draw < 0.3:
                vecs.append(tuple(-x for x in rng.choice(vecs)))
            elif 0.3 <= draw < 0.4 or not basis:
                vecs.append(tuple(F(0) for _ in range(dim)))
            else:
                coeffs = [rng.randint(-2, 2) for _ in basis]
                vecs.append(
                    tuple(sum(c * b[d] for c, b in zip(coeffs, basis)) for d in range(dim))
                )
        if len(vecs) > 1 and rng.random() < 0.5:
            vecs[-1] = tuple(-sum(v[d] for v in vecs[:-1]) for d in range(dim))
        sets.append(vecs)
    return sets


def _closed_by_lp(vecs):
    """{} and the sets of indices of vecs that pass one
    strict_zero_combination LP each."""
    count = len(vecs)
    return {frozenset()} | {
        frozenset(combo)
        for size in range(1, count + 1)
        for combo in combinations(range(count), size)
        if strict_zero_combination([vecs[i] for i in combo])[0]
    }


def _reay_or_refusal(route, vecs):
    try:
        return route(vecs)
    except PreconditionError:
        return "refused"


class TestMaxWeakReayAgainstOracles:
    """max_weak_reay's union closure against one spanning LP per subset and,
    on six or fewer vectors, against a route sharing no solver code."""

    SETS = _reay_population(fresh_rng(salt=24), 500)

    def test_population_holds_every_shape_the_closure_must_get_right(self):
        spanning = [v for v in self.SETS if positively_spans_its_span(v)]
        assert {len(v[0]) for v in self.SETS if v} == set(range(5))
        assert {len(v) for v in spanning} == set(range(10))
        assert len(self.SETS) - len(spanning) >= 100
        assert sum(linear_rank(v) < len(v[0]) for v in spanning if v) >= 50
        assert sum(any(not any(x) for x in v) for v in spanning) >= 50
        assert sum(len(set(v)) < len(v) for v in spanning) >= 50
        assert sum(
            any(tuple(-x for x in u) in v for u in v if any(u)) for v in spanning
        ) >= 50
        assert sum(
            any(x.denominator > 1 for u in v for x in u) for v in spanning
        ) >= 50

    def test_matches_one_lp_per_subset(self):
        for vecs in self.SETS:
            want = _reay_or_refusal(reay_by_lp, vecs)
            assert _reay_or_refusal(max_weak_reay, vecs) == want

    def test_matches_fourier_motzkin_on_six_or_fewer(self):
        # Fourier-Motzkin per generator, and the chain over every ordered
        # partition with closed prefixes
        for vecs in self.SETS:
            if len(vecs) > 6:
                continue
            gens = GeneratorSet.from_vectors(vecs)
            memo = {}

            def closed(subset):
                if subset not in memo:
                    memo[subset] = spans_by_negations(gens.subset(subset).vectors)
                return memo[subset]

            chain = least_longest_chain(gens.labels, closed)
            want = "refused" if chain is None else (
                len(chain) - 1,
                tuple(cur - prev for prev, cur in zip(chain, chain[1:])),
            )
            assert _reay_or_refusal(max_weak_reay, vecs) == want


class TestFactA:
    """The cover walk in `longest_closed_chain` needs the closed sets graded:
    {} and the principal subsets of a set that positively spans its span
    have maximal chains of n - rank steps only."""

    def test_random_maximal_chains_have_n_minus_rank_steps(self):
        rng = fresh_rng(salt=32)
        checked = 0
        for vecs in TestMaxWeakReayAgainstOracles.SETS:
            count = len(vecs)
            family = _closed_by_lp(vecs)
            if frozenset(range(count)) not in family:
                continue
            for _ in range(3):
                chain = random_maximal_chain(family, rng)
                assert len(chain) - 1 == count - echelon_rank_transposed(vecs)
            checked += 1
        assert checked >= 250


class TestMaxWeakReayLPCount:
    """Only uncovered subsets of at most rank + 1 generators reach a walk
    decision, and the only LP is the spanning precondition."""

    def _counted(self, monkeypatch):
        spanning, sweep_lps, lps = [], [], []
        real_spanning = radrank.cones.positively_spans_its_span
        real_szc = radrank.ratlin.strict_zero_combination
        real_phase_one = radrank.ratlin._phase_one

        def counted_spanning(x):
            spanning.append(x)
            return real_spanning(x)

        def counted_szc(gens):
            sweep_lps.append(len(gens))
            return real_szc(gens)

        def counted_phase_one(n, equations):
            lps.append(n)
            return real_phase_one(n, equations)

        monkeypatch.setattr(radrank.cones, "positively_spans_its_span", counted_spanning)
        monkeypatch.setattr(radrank.ratlin, "strict_zero_combination", counted_szc)
        monkeypatch.setattr(radrank.ratlin, "_phase_one", counted_phase_one)
        return spanning, sweep_lps, lps

    @pytest.mark.parametrize("rank,bound", [(2, 9 + 36 + 84), (3, 9 + 36 + 84 + 126)])
    def test_nine_vectors(self, monkeypatch, walk_decisions, rank, bound):
        rng = fresh_rng(salt=25 + rank)
        sets = []
        while len(sets) < 6:
            vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(rank)) for _ in range(9)]
            if linear_rank(vecs) == rank and positively_spans_its_span(vecs):
                sets.append(vecs)
        spanning, sweep_lps, lps = self._counted(monkeypatch)
        for vecs in sets:
            del walk_decisions[:], spanning[:], lps[:]
            max_weak_reay(vecs)
            assert len(spanning) == 1
            # each decision tests its prefix with one more generator
            sizes = [bin(prefix).count("1") + 1 for prefix, _ in walk_decisions]
            assert 0 < len(sizes) <= bound
            # the sweep reaches subsets of rank + 1 generators and no larger
            assert max(sizes) == rank + 1
            # each (independent prefix, larger index) decided exactly once
            assert walk_decisions == decision_pairs(vecs)
            assert len(lps) == 1
        assert sweep_lps == []

    def test_budget_refusal_comes_before_the_sweep(self, monkeypatch, walk_decisions):
        spanning, sweep_lps, lps = self._counted(monkeypatch)
        vecs = [(1,), (-1,)] * 6 + [(1,)]  # 13 generators
        with pytest.raises(ResourceLimitError, match="chain search.*WORK_BUDGET"):
            max_weak_reay(vecs)
        assert len(spanning) == 1
        assert walk_decisions == [] and sweep_lps == []


class TestPrincipalTable:
    """The circuit walk and the subset-union table against one LP per
    subset, with every walk decision and pivot accounted for, and the walk
    against the one that keeps each prefix's elimination rows."""

    SETS = [v for v in _reay_population(fresh_rng(salt=29), 400) if len(v) <= 8]

    def test_population_holds_zero_repeated_and_opposite_vectors(self):
        assert {len(v) for v in self.SETS} == set(range(9))
        assert {len(v[0]) for v in self.SETS if v} == set(range(5))
        assert sum(any(not any(x) for x in v) for v in self.SETS) >= 50
        assert sum(len(set(v)) < len(v) for v in self.SETS) >= 50
        assert sum(
            any(tuple(-x for x in u) in v for u in v if any(u)) for v in self.SETS
        ) >= 50

    def test_matches_one_lp_per_subset_and_steps_once_per_independent_prefix(
        self, monkeypatch, walk_decisions
    ):
        pivots = []
        real_pivot = radrank.cones.pivot_columns

        def counted_pivot(later, column, row, free, scale):
            pivots.append((len(later), free))
            return real_pivot(later, column, row, free, scale)

        monkeypatch.setattr(radrank.cones, "pivot_columns", counted_pivot)
        decisions = 0
        for vecs in self.SETS:
            count = len(vecs)
            del walk_decisions[:], pivots[:]
            closed, circuits = principal_table(vecs)
            # one flag per mask, the empty mask closed, even with no vectors
            assert type(closed) is bytes and len(closed) == 1 << count
            assert set(closed) <= {0, 1} and closed[0] == 1
            # in (size, sorted index) order, as `enumerate_v` lists V
            combos = [
                combo
                for size in range(1, count + 1)
                for combo in combinations(range(count), size)
            ]
            family = []  # the LP-principal masks, in that order
            for combo in combos:
                mask = sum(1 << i for i in combo)
                want = strict_zero_combination([vecs[i] for i in combo])[0]
                assert closed[mask] == want
                if want:
                    family.append(mask)
            minimal = [
                f for f in family if not any(g & f == g != f for g in family)
            ]
            assert circuits == tuple(minimal)
            # one decision per (linearly independent prefix, larger index),
            # the prefixes by size and then in sorted index order
            assert walk_decisions == decision_pairs(vecs)
            prefixes = independent_prefixes(vecs)
            assert all(len(p) <= echelon_rank_transposed(vecs) for p in prefixes)
            # one pivot per longer prefix that a later index can extend and
            # that leaves an annihilator row; a prefix that leaves none has
            # its later columns decided by signs alone
            dim = len(vecs[0]) if vecs else 0
            assert pivots == [
                (count - prefix[-1] - 1, dim - len(prefix) + 1)
                for prefix in prefixes
                if prefix and prefix[-1] + 1 < count and len(prefix) < dim
            ]
            decisions += len(walk_decisions)
        assert decisions >= 4_000

    def test_matches_the_walk_that_keeps_the_rows(self):
        sets = _reay_population(fresh_rng(salt=38), 5_000)
        # every shape the walk must get right, rank below dimension too
        assert {len(v) for v in sets} == set(range(10))
        assert {len(v[0]) for v in sets if v} == set(range(5))
        assert sum(any(not any(x) for x in v) for v in sets) >= 500
        assert sum(len(set(v)) < len(v) for v in sets) >= 500
        assert sum(
            any(tuple(-x for x in u) in v for u in v if any(u)) for v in sets
        ) >= 500
        assert sum(bool(v) and linear_rank(v) < len(v[0]) for v in sets) >= 500
        # the last vector the negated sum of the others
        assert sum(
            len(v) > 1 and all(sum(c) == 0 for c in zip(*v)) and any(map(any, v))
            for v in sets
        ) >= 500
        # in dimension 1 every size-2 circuit is decided by signs alone,
        # and must still come after the zero vector's singleton
        sets.append([(F(x),) for x in (-1, -3, 1, -3, 1, -3, 0)])
        found = 0
        for vecs in sets:
            closed, circuits = principal_table(vecs)
            want = circuits_by_steps(vecs)
            assert circuits == want, vecs
            self._check_against_list_table(len(vecs), want, closed)
            found += len(circuits)
        assert found >= 20_000

    @staticmethod
    def _check_against_list_table(count, circuits, closed):
        inside = subset_unions(count, circuits)
        assert closed == bytes(inside[mask] == mask for mask in range(1 << count))

    def test_bit_sliced_table_matches_the_list_table_on_vector_sets(self):
        rng = fresh_rng(salt=36)
        has_circuits = set()
        for rank in range(1, 5):
            for count in range(17):
                vecs = [
                    tuple(F(rng.randint(-2, 2)) for _ in range(rank))
                    for _ in range(count)
                ]
                closed, circuits = principal_table(vecs)
                self._check_against_list_table(count, circuits, closed)
                has_circuits.add(len(circuits) > 0)
        assert has_circuits == {False, True}

    def test_bit_sliced_table_matches_the_list_table_on_any_masks(self):
        # any family of masks, not only circuits: each mask is closed iff it
        # is the union of the family's masks inside it
        rng = fresh_rng(salt=37)
        for count in range(11):
            for _ in range(20):
                family = [rng.randrange(1 << count) for _ in range(rng.randint(0, 12))]
                self._check_against_list_table(count, family, closed_flags(count, family))

    def test_patterns_mark_the_masks_lacking_each_index(self):
        for count in range(15):
            size = 1 << count
            lacks = masks_lacking(count)
            assert len(lacks) == count
            for i, pattern in enumerate(lacks):
                want = "".join(
                    "0" if mask >> i & 1 else "1" for mask in reversed(range(size))
                )
                assert pattern == int(want, 2)


class TestLongestClosedChain:
    def test_lexicographically_least_among_maxima(self):
        # every subset of {a, b} is closed, so two maximum chains exist; the
        # one through {a} must win over the one through {b}
        chain = longest_closed_chain(["b", "a"], lambda mask: True)
        assert chain == (frozenset(), frozenset({"a"}), frozenset({"a", "b"}))

    def test_predicate_takes_masks_over_sorted_labels(self):
        # bit 0 is "a" and bit 1 is "b" whatever order the labels come in;
        # only {b} is closed between the endpoints
        seen = []

        def closed(mask):
            seen.append(mask)
            return mask in (0b00, 0b10, 0b11)

        chain = longest_closed_chain(["b", "a"], closed)
        assert chain == (frozenset(), frozenset({"b"}), frozenset({"a", "b"}))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_endpoints_must_be_closed(self):
        with pytest.raises(PreconditionError):
            longest_closed_chain(["a"], lambda mask: bool(mask))

    def test_empty_labels(self):
        assert longest_closed_chain([], lambda mask: True) == (frozenset(),)

    def test_matches_partition_oracle(self):
        # random families, mostly not graded: the general longest-chain
        # program that reay_by_lp reads its chain off
        rng = fresh_rng(salt=23)
        for _ in range(300):
            labels = rng.sample("abcdefgh", rng.randrange(7))
            order = sorted(labels)
            density = rng.random()
            full = (1 << len(labels)) - 1
            closed = {
                mask for mask in range(1, full) if rng.random() < density
            } | {0, full}

            def as_set(mask):
                return frozenset(l for i, l in enumerate(order) if mask >> i & 1)

            sets = {as_set(mask) for mask in closed}
            want = least_longest_chain(labels, sets.__contains__)
            assert longest_chain_by_dp(labels, closed.__contains__) == want

    def test_graded_families_match_partition_oracle(self):
        # {} and the principal subsets, one LP each, of seeded vector sets:
        # graded when the whole set is principal, refused when it is not
        sets = [v for v in _reay_population(fresh_rng(salt=31), 250) if len(v) <= 7]
        assert {len(v) for v in sets} == set(range(8))
        assert sum(any(not any(x) for x in v) for v in sets) >= 50
        assert sum(len(set(v)) < len(v) for v in sets) >= 50
        assert sum(
            any(tuple(-x for x in u) in v for u in v if any(u)) for v in sets
        ) >= 50
        chains = 0
        for vecs in sets:
            labels = [f"g{i}" for i in range(len(vecs))]
            family = _closed_by_lp(vecs)
            closed = {sum(1 << i for i in s) for s in family}
            named = {frozenset(labels[i] for i in s) for s in family}
            want = least_longest_chain(labels, named.__contains__)
            try:
                got = longest_closed_chain(labels, closed.__contains__)
            except PreconditionError:
                got = None
            assert got == want
            chains += got is not None
        assert chains >= 150


def _chain_families(rng, count):
    """`count` (labels, is_closed, closed masks) triples of 0-10 labels,
    taking turns among four kinds: each mask closed at a random density, so
    mostly neither graded nor union-closed; the union closure of a few random
    masks, union-closed but mostly not graded; every mask of a random set of
    sizes, graded but mostly not union-closed; and the density kind again with
    a few labels.  `is_closed` alternates between 0/1 flags and bools."""
    families = []
    for turn in range(count):
        kind = turn % 4
        n = rng.randint(0, 5) if kind == 3 else rng.randint(0, 10)
        full = (1 << n) - 1
        if kind == 1:
            spans = rng.sample(range(full + 1), min(full + 1, rng.randint(1, 6)))
            inside = subset_unions(n, spans)
            closed = {mask for mask in range(full + 1) if inside[mask] == mask}
        elif kind == 2:
            sizes = set(rng.sample(range(n + 1), rng.randint(0, n + 1)))
            closed = {mask for mask in range(full + 1) if mask.bit_count() in sizes}
        else:
            density = rng.random()
            closed = {mask for mask in range(full + 1) if rng.random() < density}
        closed |= {0, full}
        flags = bytes(mask in closed for mask in range(full + 1))
        is_closed = flags.__getitem__ if turn % 2 else closed.__contains__
        labels = rng.sample([f"x{i}" for i in range(12)], n)
        families.append((labels, is_closed, closed))
    return families


class TestClosedChainScan:
    """The bit-sliced cover walk against the full scan per step, and its one
    `is_closed` call per mask."""

    def test_matches_the_full_scan_on_any_family(self):
        families = _chain_families(fresh_rng(salt=43), 5_000)
        assert {len(labels) for labels, *_ in families} == set(range(11))
        not_union_closed = not_graded = neither = 0
        for labels, is_closed, closed in families:
            seen = []

            def counted(mask):
                seen.append(mask)
                return is_closed(mask)

            chain = longest_closed_chain(labels, counted)
            assert sorted(seen) == list(range(1 << len(labels)))
            assert chain == chain_by_full_scan(labels, is_closed)
            unions = any(a | b not in closed for a in closed for b in closed)
            # a chain of least covers shorter than the longest one shows
            # the family is not graded
            short = len(labels) <= 8 and len(chain) < len(
                longest_chain_by_dp(labels, is_closed)
            )
            not_union_closed += unions
            not_graded += short
            neither += unions and short
        assert not_union_closed >= 1_500
        assert not_graded >= 500
        assert neither >= 350

    def test_refuses_thirteen_labels_before_any_call(self):
        seen = []

        def is_closed(mask):
            seen.append(mask)
            return True

        with pytest.raises(ResourceLimitError, match="chain search.*WORK_BUDGET"):
            longest_closed_chain([f"g{i:02d}" for i in range(13)], is_closed)
        assert seen == []

    def test_calls_is_closed_once_per_mask(self):
        rng = fresh_rng(salt=40)
        for count in range(10):
            labels = [f"g{i}" for i in range(count)]
            spanning = [(F(1),), (F(-1),)] * (count // 2) + [(F(0),)] * (count % 2)
            vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(2)) for _ in range(count)]
            if count > 1:
                vecs[-1] = tuple(-sum(c) for c in zip(*vecs[:-1]))
            families = [bytes([1]) * (1 << count), principal_table(spanning)[0]]
            if positively_spans_its_span(vecs):
                families.append(principal_table(vecs)[0])
            for closed in families:
                seen = []

                def is_closed(mask):
                    seen.append(mask)
                    return closed[mask]

                chain = longest_closed_chain(labels, is_closed)
                assert chain == chain_by_full_scan(labels, closed.__getitem__)
                assert sorted(seen) == list(range(1 << count))

    def test_matches_the_full_scan_on_spanning_sets(self):
        sets = [
            v for v in _reay_population(fresh_rng(salt=41), 3_500)
            if positively_spans_its_span(v)
        ]
        assert len(sets) >= 1_500
        assert {len(v) for v in sets} == set(range(10))
        for vecs in sets:
            labels = [f"g{i}" for i in range(len(vecs))]
            closed = principal_table(vecs)[0]
            assert longest_closed_chain(labels, closed.__getitem__) == (
                chain_by_full_scan(labels, closed.__getitem__)
            )

    def test_matches_the_full_scan_on_inverse_bases(
        self, monkeypatch, spanning_population
    ):
        # recover_rank's chain runs over {} and the members of V inside its
        # inverse basis δ
        calls = []
        real_chain = radrank.rank.longest_closed_chain

        def captured(labels, is_closed):
            calls.append((labels, is_closed))
            return real_chain(labels, is_closed)

        monkeypatch.setattr(radrank.rank, "longest_closed_chain", captured)
        rng = fresh_rng(salt=42)
        models = list(spanning_population)
        models += [gen(k) for gen in (gen_d1, gen_d2, gen_d3) for k in range(3, 11)]
        models += [
            random_spanning_model(rng, min_primes=3, max_primes=9, ranks=range(5))
            for _ in range(120)
        ]
        for m in models:
            recover_rank(m)
        assert len(calls) == len(models)
        assert {len(labels) for labels, _ in calls} >= {0, 2, 3, 4, 5}
        for labels, is_closed in calls:
            assert real_chain(labels, is_closed) == chain_by_full_scan(labels, is_closed)


class TestGeneratorSet:
    def test_sorts_by_label(self):
        g = GeneratorSet(("b", "a"), ((1,), (2,)))
        assert g.labels == ("a", "b")
        assert g.vectors == ((F(2),), (F(1),))

    def test_auto_labels_are_padded(self):
        g = GeneratorSet.from_vectors([(i,) for i in range(11)])
        assert g.labels[0] == "g00" and g.labels[10] == "g10"
        assert list(g.labels) == sorted(g.labels)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet(("a", "a"), ((1,), (2,)))

    def test_subset(self):
        g = GeneratorSet.from_vectors([(1,), (2,), (3,)])
        sub = g.subset({"g00", "g02"})
        assert sub.vectors == ((F(1),), (F(3),))
