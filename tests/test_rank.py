"""Almost-inverses, inverse bases, chain search, rank recovery."""

from itertools import combinations

import pytest

from modelgen import (
    fresh_rng,
    random_invertible_matrix,
    random_positive_scales,
    random_spanning_model,
    zero_model,
)
from oracles import spans_by_negations
from radrank import (
    Model,
    PreconditionError,
    ReayChain,
    ResourceLimitError,
    find_inverse_basis,
    gen_d1,
    gen_d2,
    gen_d3,
    inv_cone,
    inv_enum,
    is_self_inverse,
    linear_rank,
    max_reay_chain,
    recover_rank,
    transform,
    validate,
)
from radrank.cones import positively_spans_its_span


def cross_model():
    return Model(
        2,
        [
            ("a0", (1, 0)),
            ("a1", (-1, 0)),
            ("b0", (0, 1)),
            ("b1", (0, -1)),
        ],
    )


def all_subsets(ids):
    for size in range(len(ids) + 1):
        yield from combinations(ids, size)


class TestAlmostInverses:
    def test_single_prime(self):
        m = gen_d1(4)
        assert inv_enum(m, {"P0"}) == {"P1", "P3"}
        assert inv_cone(m, {"P0"}) == {"P1", "P3"}

    def test_opposite_pair_reaches_everything(self):
        m = gen_d1(4)
        assert inv_enum(m, {"P0", "P1"}) == set(m.ids())

    def test_empty_delta_picks_out_zero_classes(self):
        m = gen_d3(4)
        assert inv_enum(m, set()) == {"R0"}
        assert inv_cone(m, set()) == {"R0"}

    def test_mixed_signs_on_a_line(self):
        m = gen_d2(4)
        assert inv_cone(m, {"Q0", "Q1"}) == set(m.ids())

    def test_zero_class_is_everyones_inverse(self):
        m = gen_d3(4)
        assert "R0" in inv_cone(m, {"R1"})

    def test_enumeration_bound(self):
        big = Model(1, [(f"p{i:02d}", (1,)) for i in range(13)])
        with pytest.raises(ResourceLimitError, match="subsets of delta.*WORK_BUDGET"):
            inv_enum(big, big.ids())

    def test_routes_agree(self):
        rng = fresh_rng(salt=50)
        models = [zero_model(0, 3), gen_d1(4), gen_d3(4)]
        models += [random_spanning_model(rng, min_primes=3, max_primes=5) for _ in range(6)]
        for m in models:
            for delta in all_subsets(m.ids()):
                assert inv_enum(m, delta) == inv_cone(m, delta)

    def test_monotone_in_delta(self):
        rng = fresh_rng(salt=51)
        for _ in range(8):
            m = random_spanning_model(rng, min_primes=3, max_primes=5)
            ids = m.ids()
            for delta in all_subsets(ids):
                small = inv_cone(m, delta)
                for extra in ids:
                    assert small <= inv_cone(m, set(delta) | {extra})


class TestSelfInverse:
    def test_empty_set(self):
        assert is_self_inverse(gen_d1(4), set())

    def test_single_prime_is_not(self):
        assert not is_self_inverse(gen_d1(4), {"P0"})

    def test_opposite_pair_is(self):
        assert is_self_inverse(gen_d1(4), {"P0", "P1"})

    def test_full_set_iff_positively_spanning(self):
        rng = fresh_rng(salt=52)
        from modelgen import random_model

        for _ in range(15):
            m = random_model(rng, 3, 6)
            assert is_self_inverse(m, m.ids()) == validate(m).positively_spanning

    def test_single_lp_agrees_with_per_generator_oracle(self):
        # Classes are drawn from a four-vector pool holding the zero vector,
        # so zero and repeated classes both occur; ambient rank 0 is included
        # and every subset is checked, the empty one too.
        rng = fresh_rng(salt=53)
        checked = 0
        for _ in range(100):
            r = rng.randrange(0, 4)
            pool = [(0,) * r] + [
                tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(3)
            ]
            n = rng.randrange(1, 6)
            m = Model(r, [(f"p{i}", rng.choice(pool)) for i in range(n)])
            for size in range(n + 1):
                for subset in combinations(m.ids(), size):
                    vecs = [m.vector(p) for p in subset]
                    expected = spans_by_negations(vecs)
                    assert positively_spans_its_span(vecs) == expected
                    assert is_self_inverse(m, subset) == expected
                    checked += 1
        assert checked > 1000


class TestInverseBasis:
    def test_alternating(self):
        assert find_inverse_basis(gen_d1(4)) == {"P2", "P3"}

    def test_torsion_needs_nothing(self):
        assert find_inverse_basis(zero_model(0, 3)) == frozenset()

    def test_with_zero_class(self):
        assert find_inverse_basis(gen_d3(4)) == {"R2", "R3"}

    def test_requires_positively_spanning(self):
        with pytest.raises(PreconditionError):
            find_inverse_basis(Model(1, [("a", (1,))]))

    def test_result_covers_and_is_minimal(self):
        rng = fresh_rng(salt=53)
        for _ in range(10):
            m = random_spanning_model(rng, min_primes=3, max_primes=6)
            delta = find_inverse_basis(m)
            everyone = set(m.ids())
            assert inv_cone(m, delta) == everyone
            for pid in delta:
                assert inv_cone(m, delta - {pid}) != everyone


class TestReayChain:
    def test_must_start_empty(self):
        with pytest.raises(ValueError):
            ReayChain((frozenset({"a"}),))

    def test_must_strictly_increase(self):
        with pytest.raises(ValueError):
            ReayChain((frozenset(), frozenset()))

    def test_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ReayChain(())

    def test_blocks_are_consecutive_differences(self):
        chain = ReayChain(
            (frozenset(), frozenset({"a"}), frozenset({"a", "b", "c"}))
        )
        assert chain.cardinality == 2
        assert chain.blocks == (frozenset({"a"}), frozenset({"b", "c"}))


class TestMaxReayChain:
    def test_opposite_pair_basis(self):
        m = gen_d1(4)
        chain = max_reay_chain(m, {"P2", "P3"})
        assert chain.subsets == (frozenset(), frozenset({"P2", "P3"}))
        assert chain.cardinality == 1

    def test_torsion_empty_basis(self):
        chain = max_reay_chain(zero_model(0, 3), set())
        assert chain.subsets == (frozenset(),)
        assert chain.cardinality == 0

    def test_two_independent_lines(self):
        chain = max_reay_chain(cross_model(), ["a0", "a1", "b0", "b1"])
        assert chain.subsets == (
            frozenset(),
            frozenset({"a0", "a1"}),
            frozenset({"a0", "a1", "b0", "b1"}),
        )
        assert chain.blocks == (
            frozenset({"a0", "a1"}),
            frozenset({"b0", "b1"}),
        )

    def test_rejects_non_covering_delta(self):
        with pytest.raises(PreconditionError, match="does not cover"):
            max_reay_chain(gen_d1(4), {"P0"})

    def test_rejects_non_minimal_delta(self):
        with pytest.raises(PreconditionError, match="not minimal"):
            max_reay_chain(gen_d1(4), {"P0", "P1", "P2"})


class TestRecoverRank:
    @pytest.mark.parametrize("k", [4, 8])
    def test_counterexample_families_have_rank_one(self, k):
        assert recover_rank(gen_d1(k)) == 1
        assert recover_rank(gen_d2(k)) == 1
        assert recover_rank(gen_d3(k)) == 1

    def test_torsion_rank_zero(self):
        assert recover_rank(zero_model(0, 4)) == 0

    def test_cross_rank_two(self):
        assert recover_rank(cross_model()) == 2

    def test_requires_positively_spanning(self):
        with pytest.raises(PreconditionError):
            recover_rank(Model(1, [("a", (1,))]))

    def test_matches_linear_rank(self):
        rng = fresh_rng(salt=54)
        for _ in range(25):
            m = random_spanning_model(rng, min_primes=3, max_primes=6)
            assert recover_rank(m) == linear_rank(m.vectors())

    def test_invariant_under_change_of_presentation(self):
        rng = fresh_rng(salt=55)
        for _ in range(10):
            m = random_spanning_model(rng, min_primes=3, max_primes=6)
            moved = transform(
                m,
                random_invertible_matrix(rng, m.ambient_rank),
                random_positive_scales(rng, m.ids()),
            )
            assert recover_rank(moved) == recover_rank(m)

    def test_agrees_with_explicit_pipeline(self):
        rng = fresh_rng(salt=56)
        models = [gen_d1(4), gen_d3(5), cross_model()]
        models += [random_spanning_model(rng, min_primes=3, max_primes=6) for _ in range(8)]
        for m in models:
            delta = find_inverse_basis(m)
            chain = max_reay_chain(m, delta)
            assert recover_rank(m) == len(delta) - chain.cardinality

    def test_independent_of_basis_choice(self):
        # every minimal covering prime set gives the same defect, and that
        # defect is the plain linear rank
        rng = fresh_rng(salt=57)
        models = [gen_d1(4), cross_model(), random_spanning_model(rng, min_primes=4, max_primes=5)]
        for m in models:
            everyone = set(m.ids())
            covering = [
                frozenset(sub)
                for sub in all_subsets(m.ids())
                if inv_cone(m, sub) == everyone
            ]
            bases = [
                d
                for d in covering
                if not any(o < d for o in covering)
            ]
            assert bases
            expected = linear_rank(m.vectors())
            for delta in bases:
                s = max_reay_chain(m, delta).cardinality
                assert len(delta) - s == expected
