"""Almost-inverses, inverse bases, chain search, rank recovery."""

from fractions import Fraction
from itertools import combinations

import pytest

from modelgen import (
    fresh_rng,
    random_invertible_matrix,
    random_positive_scales,
    random_spanning_model,
    relabeled,
    zero_model,
)
from oracles import (
    echelon_rank_transposed,
    prune_by_rank_and_span,
    random_maximal_chain,
    rank_by_height,
    spans_by_negations,
    spans_with_rank,
)
from radrank import (
    GeneratorSet,
    Model,
    PreconditionError,
    ReayChain,
    ResourceLimitError,
    enumerate_v,
    extract_positive_basis,
    find_inverse_basis,
    find_iso,
    gen_d1,
    gen_d2,
    gen_d3,
    inv_cone,
    inv_enum,
    is_positive_basis,
    is_self_inverse,
    linear_rank,
    max_reay_chain,
    recover_rank,
    transform,
    validate,
)
import radrank.cones
import radrank.rank
import radrank.ratlin
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
        # lists and sets are frozen, so compared as sets and hashable
        chain = ReayChain(([], ["b"], {"a", "b"}))
        assert chain.subsets == (frozenset(), frozenset({"b"}), frozenset({"a", "b"}))
        assert chain.blocks == (frozenset({"b"}), frozenset({"a"}))
        assert hash(chain) == hash(ReayChain(chain.subsets))


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


def seeded_vector_sets(rng, count):
    """count (vectors, n) pairs in Q^n, n = 0-3, each of 0-7 small vectors,
    often holding a zero vector, a repeated vector or an opposite pair."""
    sets = []
    for i in range(count):
        n = i % 4
        vecs = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randrange(8))
        ]
        if vecs:
            v = rng.choice(vecs)
            for extra in ((Fraction(0),) * n, v, tuple(-x for x in v)):
                if rng.random() < 0.4:
                    vecs.insert(rng.randrange(len(vecs) + 1), extra)
        sets.append((vecs, n))
    return sets


def outcome(call, *args):
    """call's result, or its PreconditionError's message."""
    try:
        return call(*args)
    except PreconditionError as err:
        return str(err)


def expected_extract(vecs, n):
    """extract_positive_basis's kept indices, or its message, by elimination."""
    if not spans_with_rank(vecs, n):
        return "input does not positively span the ambient space"
    k = next(k for k in range(len(vecs) + 1) if spans_with_rank(vecs[:k], n))
    return prune_by_rank_and_span(vecs[:k], n)


def expected_inverse_basis(m):
    """find_inverse_basis on a positively spanning model, by elimination."""
    ids = sorted(m.ids())
    vecs = [m.vector(p) for p in ids]
    kept = prune_by_rank_and_span(vecs, echelon_rank_transposed(vecs))
    return frozenset(ids[i] for i in kept)


def expected_chain_verdict(m, delta):
    """max_reay_chain's refusal message for delta, or None if it accepts."""
    vecs = [m.vector(p) for p in sorted(delta)]
    full = echelon_rank_transposed(m.vectors())
    if not spans_with_rank(vecs, full):
        return "delta is not an inverse basis (does not cover)"
    if prune_by_rank_and_span(vecs, full) != list(range(len(vecs))):
        return "delta is not an inverse basis (not minimal)"
    return None


class TestPositiveBasisGreedy:
    """The four callers of `cones.prune` agree with the greedy that tests
    rank and positive spanning on every trial."""

    def test_find_inverse_basis(self, spanning_population):
        for m in spanning_population:
            assert find_inverse_basis(m) == expected_inverse_basis(m)

    def test_extract_and_is_positive_basis(self):
        spanning, bases, shapes, held = 0, 0, set(), [0, 0, 0]
        for vecs, n in seeded_vector_sets(fresh_rng(salt=58), 400):
            labels = GeneratorSet.from_vectors(vecs).labels
            want = expected_extract(vecs, n)
            got = outcome(extract_positive_basis, vecs, n)
            if isinstance(want, str):
                assert got == want
                assert not is_positive_basis(vecs, n)
                continue
            spanning += 1
            shapes.add((n, len(vecs)))
            held[0] += (Fraction(0),) * n in vecs
            held[1] += len(set(vecs)) < len(vecs)
            held[2] += any(any(v) and tuple(-x for x in v) in vecs for v in vecs)
            assert got.labels == tuple(labels[i] for i in want)
            assert is_positive_basis(got, n)
            whole = want == list(range(len(vecs)))
            bases += whole
            assert is_positive_basis(vecs, n) == whole
        # (zero, repeated, opposite) vectors among the spanning sets
        assert spanning >= 150 and bases >= 10 and min(held) >= 50, held
        assert {n for n, _ in shapes} == set(range(4))

    def test_max_reay_chain_accepts_or_refuses(self, spanning_population):
        verdicts = set()
        for m in spanning_population:
            delta = expected_inverse_basis(m)
            trials = [delta] + [delta | {q} for q in m.ids() if q not in delta]
            trials += [delta - {p} for p in delta]
            for d in trials:
                verdict = outcome(max_reay_chain, m, d)
                want = expected_chain_verdict(m, d)
                assert (None if isinstance(verdict, ReayChain) else verdict) == want
                verdicts.add(want)
        assert len(verdicts) == 3


class TestPositiveBasisGreedyCounts:
    """Each trial of the greedy is one LP and no rank computation."""

    def _counted(self, monkeypatch):
        solves, ranks = [], []
        real_phase_one = radrank.ratlin._phase_one
        real_rank = radrank.ratlin.linear_rank

        def counted_phase_one(n, equations):
            solves.append(n)
            return real_phase_one(n, equations)

        def counted_rank(vectors):
            ranks.append(len(vectors))
            return real_rank(vectors)

        monkeypatch.setattr(radrank.ratlin, "_phase_one", counted_phase_one)
        monkeypatch.setattr(radrank.cones, "linear_rank", counted_rank)
        monkeypatch.setattr(radrank.rank, "linear_rank", counted_rank)
        return solves, ranks

    def _models(self, spanning_population):
        # rank >= 1, so every trial leaves a nonempty set, which takes an LP
        models = list(spanning_population) + [gen_d1(12), gen_d3(8), cross_model()]
        return [m for m in models if echelon_rank_transposed(m.vectors()) == m.ambient_rank > 0]

    def test_find_inverse_basis(self, monkeypatch, spanning_population):
        models = self._models(spanning_population)
        solves, ranks = self._counted(monkeypatch)
        for m in models:
            del solves[:]
            find_inverse_basis(m)
            assert len(solves) == len(m.ids()) + 1
        assert ranks == [] and len(models) >= 60

    def test_is_positive_basis(self, monkeypatch, spanning_population):
        models = self._models(spanning_population)
        bases = [[m.vector(p) for p in sorted(find_inverse_basis(m))] for m in models]
        solves, ranks = self._counted(monkeypatch)
        for m, basis in zip(models, bases):
            del solves[:], ranks[:]
            assert is_positive_basis(basis, m.ambient_rank)
            assert len(solves) == len(basis) + 1
            assert len(ranks) == 1


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

    def test_own_greedy_finds_the_inverse_basis(self, monkeypatch, spanning_population):
        # recover_rank's mask greedy is a route of its own, so its basis is
        # checked directly: by Fact A any covering set would give the rank
        bases = []
        real_chain = radrank.rank.longest_closed_chain

        def captured(labels, is_closed):
            bases.append(frozenset(labels))
            return real_chain(labels, is_closed)

        monkeypatch.setattr(radrank.rank, "longest_closed_chain", captured)
        families = [gen(k) for gen in (gen_d1, gen_d2, gen_d3) for k in range(2, 9)]
        # gen_d3(2) alone does not positively span its span
        families = [m for m in families if positively_spans_its_span(m.vectors())]
        assert len(families) == 20
        for m in list(spanning_population) + families:
            del bases[:]
            recover_rank(m)
            assert bases == [find_inverse_basis(m)]

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

    def test_rank_is_an_invariant_of_the_support_poset(self):
        # The theorem end to end: a relabelled copy moved by an invertible
        # matrix and positive scales has an isomorphic V and the same
        # recovered rank, the linear rank; models of one prime count and
        # different rank have no isomorphism of V at all.
        rng = fresh_rng(salt=58)
        models = [
            random_spanning_model(rng, min_primes=6, max_primes=10, ranks=(0, 1, 2, 3, 4))
            for _ in range(60)
        ]
        ranks = [linear_rank(m.vectors()) for m in models]
        for m, rank in zip(models, ranks):
            names = [f"q{i:02d}" for i in range(len(m.ids()))]
            rng.shuffle(names)
            copy = relabeled(m, dict(zip(m.ids(), names)))
            copy = transform(
                copy,
                random_invertible_matrix(rng, m.ambient_rank),
                random_positive_scales(rng, copy.ids()),
            )
            eta = find_iso(m, copy)
            assert eta is not None and sorted(eta.values()) == sorted(copy.ids())
            moved = {frozenset(eta[p] for p in s) for s in enumerate_v(m)}
            assert moved == set(enumerate_v(copy))
            assert recover_rank(m) == recover_rank(copy) == rank
        distinct = 0
        for (ma, ra), (mb, rb) in combinations(zip(models, ranks), 2):
            if len(ma.ids()) == len(mb.ids()) and ra != rb:
                assert find_iso(ma, mb) is None, (ma, mb)
                distinct += 1
        assert sorted(set(ranks)) == [0, 1, 2, 3, 4] and distinct > 100


def simplex_product_model(rng, parts):
    """A positive basis of Q^sum(parts), one simplex (d basis vectors and
    their negated sum) per part of size d, in random coordinates: its own
    inverse basis, with self-inverse chains of len(parts) steps."""
    rank = sum(parts)
    vecs, start = [], 0
    for d in parts:
        block = [tuple(int(i == start + j) for i in range(rank)) for j in range(d)]
        vecs += block + [tuple(-sum(col) for col in zip(*block))]
        start += d
    m = Model(rank, [(f"P{i}", v) for i, v in enumerate(vecs)])
    return transform(
        m, random_invertible_matrix(rng, rank), random_positive_scales(rng, m.ids())
    )


class TestFactA:
    """recover_rank's chain search needs the self-inverse subsets of an
    inverse basis graded: every maximal chain of them has |delta| - rank
    steps."""

    @staticmethod
    def _check_random_chains(m, rng):
        delta = find_inverse_basis(m)
        family = {frozenset()} | {s for s in enumerate_v(m) if s <= delta}
        rank = echelon_rank_transposed([m.vector(p) for p in sorted(delta)])
        for _ in range(3):
            chain = random_maximal_chain(family, rng)
            assert chain[-1] == delta
            assert len(chain) - 1 == len(delta) - rank
        return len(delta) - rank

    def test_spanning_population(self, spanning_population):
        # every inverse basis here is a single positive circuit
        rng = fresh_rng(salt=58)
        for m in spanning_population:
            assert self._check_random_chains(m, rng) <= 1

    def test_products_of_simplices(self):
        rng = fresh_rng(salt=59)
        models = [cross_model()] + [
            simplex_product_model(rng, parts)
            for parts in [(1, 1, 1), (2, 1), (2, 1, 1), (2, 2), (3, 1), (1, 1, 1, 1)]
        ]
        for m in models:
            steps = self._check_random_chains(m, rng)
            assert steps == len(m.ids()) - m.ambient_rank >= 2


def padded_simplex_models():
    """32 products of simplices, each with 1-3 primes added whose classes
    are positive multiples of existing ones, and sometimes a zero class:
    at most 12 primes, inverse bases that drop primes, and self-inverse
    chains of 2-4 steps."""
    rng = fresh_rng(salt=60)
    models = []
    for parts in [(1, 1), (1, 1, 1), (2, 1), (2, 1, 1), (2, 2), (3, 1), (1, 1, 1, 1), (2, 2, 1)]:
        for _ in range(4):
            base = simplex_product_model(rng, parts)
            primes = list(base.primes)
            for i in range(rng.randint(1, 3)):
                _, v = rng.choice(base.primes)
                scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                primes.append((f"Q{i}", tuple(scale * x for x in v)))
            if rng.random() < 0.5:
                primes.append(("Z", (Fraction(0),) * base.ambient_rank))
            models.append(Model(base.ambient_rank, primes))
    return models


class TestMultiStepChains:
    def test_routes_agree_past_one_step(self):
        for m in padded_simplex_models():
            delta = find_inverse_basis(m)
            rank = linear_rank(m.vectors())
            assert len(delta) < len(m.ids()) <= 12
            assert 2 <= len(delta) - rank <= 4
            assert recover_rank(m) == rank == len(delta) - max_reay_chain(m, delta).cardinality
            assert is_positive_basis([m.vector(p) for p in sorted(delta)], m.ambient_rank)


class TestFactB:
    """The rank is n minus the steps of any maximal chain of V plus the
    empty set, when every prime lies in a member."""

    def test_spanning_population(self, spanning_population):
        rng = fresh_rng(salt=61)
        for m in spanning_population:
            assert rank_by_height(m, rng) == recover_rank(m)

    def test_padded_simplex_products(self):
        rng = fresh_rng(salt=62)
        for m in padded_simplex_models():
            assert rank_by_height(m, rng) == recover_rank(m)
