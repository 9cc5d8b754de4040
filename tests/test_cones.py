from fractions import Fraction

import pytest

from modelgen import fresh_rng, random_invertible_matrix
from oracles import max_reay_by_enumeration, spans_by_negations
from radrank import (
    GeneratorSet,
    PreconditionError,
    ResourceLimitError,
    extract_positive_basis,
    is_positive_basis,
    linear_rank,
    max_weak_reay,
)
from radrank.cones import longest_closed_chain, positively_spans_its_span

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
