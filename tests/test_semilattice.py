"""Semilattice structure, coprimality, maximal families, isomorphisms."""

import gc
from itertools import combinations

import pytest

from modelgen import (
    fresh_rng,
    random_invertible_matrix,
    random_model,
    random_positive_scales,
    random_spanning_model,
    relabeled,
    zero_model,
)
from oracles import (
    iso_by_images,
    iso_by_permutations,
    maximal_product_proper,
    minimal_members,
    product_proper_by_raw,
    raw_coprime,
    union_failures,
)
from radrank import (
    Model,
    PreconditionError,
    StructureError,
    divides,
    enumerate_v,
    extend_iso,
    find_iso,
    gen_d1,
    gen_d2,
    gen_d3,
    is_product_proper,
    meet,
    mprop,
    nu,
    product_coprime_raw,
    product_coprime_supports,
    recover_rank,
    theta,
    transform,
    validate,
)
from radrank.model import v_circuits


def torsion(n):
    return zero_model(0, n, prefix="P")


class TestOrder:
    def test_divides_is_containment(self):
        assert divides({"a"}, {"a", "b"})
        assert not divides({"a", "b"}, {"a"})
        assert divides(set(), {"a"})

    def test_meet_is_union(self):
        assert meet({"a"}, {"b"}) == frozenset({"a", "b"})
        assert meet({"a"}, {"a"}) == frozenset({"a"})

    def test_meet_laws(self):
        rng = fresh_rng(salt=40)
        pool = [f"p{i}" for i in range(6)]
        for _ in range(50):
            x = frozenset(rng.sample(pool, rng.randrange(0, 5)))
            y = frozenset(rng.sample(pool, rng.randrange(0, 5)))
            z = frozenset(rng.sample(pool, rng.randrange(0, 5)))
            assert meet(x, y) == meet(y, x)
            assert meet(x, meet(y, z)) == meet(meet(x, y), z)
            assert meet(x, x) == x
            # the order induced by the operation is the containment order
            assert divides(x, y) == (meet(x, y) == y)

    def test_divides_via_meet_within_family(self):
        rng = fresh_rng(salt=41)
        for _ in range(10):
            m = random_model(rng, 3, 5)
            members = enumerate_v(m)
            for x in members:
                for y in members:
                    witnessed = any(meet(x, z) == y for z in members)
                    assert divides(x, y) == witnessed


class TestProductCoprime:
    def test_disjoint_pair(self):
        m = gen_d1(4)
        assert product_coprime_raw(m, [{"P0", "P1"}, {"P2", "P3"}])
        assert product_coprime_supports([{"P0", "P1"}, {"P2", "P3"}])

    def test_overlapping_pair(self):
        m = gen_d1(4)
        assert not product_coprime_raw(m, [{"P0", "P1"}, {"P0", "P3"}])
        assert not product_coprime_supports([{"P0", "P1"}, {"P0", "P3"}])

    def test_supports_criterion_triples(self):
        assert product_coprime_supports([{"a"}, {"b"}, {"c"}])
        assert not product_coprime_supports([{"a", "b"}, {"b", "c"}, {"b"}])
        # pairwise overlaps but empty total intersection
        assert product_coprime_supports([{"a", "b"}, {"b", "c"}, {"a", "c"}])

    def test_repeated_support_never_coprime_with_itself(self):
        m = gen_d1(4)
        s = {"P0", "P1"}
        assert not product_coprime_raw(m, [s, s])

    def test_needs_two_supports(self):
        with pytest.raises(ValueError):
            product_coprime_raw(gen_d1(4), [{"P0", "P1"}])
        with pytest.raises(ValueError):
            product_coprime_supports([{"a"}])

    def test_rejects_non_principal_support(self):
        with pytest.raises(ValueError):
            product_coprime_raw(gen_d1(4), [{"P0", "P2"}, {"P1", "P3"}])

    def test_raw_matches_definition_on_witness_rich_models(self):
        for m in (torsion(3), gen_d1(4)):
            members = enumerate_v(m)
            for size in (2, 3):
                for tup in combinations(members, size):
                    assert product_coprime_raw(m, tup) == raw_coprime(
                        members, tup
                    )

    def test_raw_matches_definition_on_degenerate_model(self):
        # the zero-class prime breaks the no-shared-prime shortcut, so the
        # factored check has to reproduce the quantifier answer exactly
        m = gen_d3(4)
        members = enumerate_v(m)
        for size in (2, 3):
            for tup in combinations(members, size):
                assert product_coprime_raw(m, tup) == raw_coprime(members, tup)

    def test_raw_matches_definition_on_random_models(self):
        # random models are mostly not witness-rich, so this population
        # reaches the decomposition tables where the two routes part ways
        rng = fresh_rng(salt=43)
        checked = disagreements = 0
        for _ in range(40):
            m = random_model(rng, 3, 4)
            members = enumerate_v(m)
            for size in (2, 3):
                for tup in combinations(members, size):
                    raw = product_coprime_raw(m, tup)
                    assert raw == raw_coprime(members, tup)
                    checked += 1
                    disagreements += raw != product_coprime_supports(tup)
        assert checked > 1000
        assert disagreements > 0

    def test_raw_keeps_no_state_on_the_model(self):
        # nor do the isomorphism and rank routes, which read V's circuits
        m, other = gen_d1(8), gen_d2(8)
        enumerate_v(m)  # V itself is cached by the model
        enumerate_v(other)
        before = list(m._cache), list(other._cache)
        assert product_coprime_raw(m, [{"P0", "P1"}, {"P2", "P3"}])
        assert not product_coprime_raw(m, [{"P0", "P1"}, {"P0", "P3"}])
        eta = find_iso(m, other)
        phi = {s: frozenset(eta[p] for p in s) for s in enumerate_v(m)}
        assert extend_iso(m, other, phi) == (eta, True)
        assert recover_rank(m) == recover_rank(other) == 1
        assert (list(m._cache), list(other._cache)) == before

    def test_raw_matches_definition_past_six_primes(self):
        rng = fresh_rng(salt=44)
        models = [gen_d1(8), gen_d2(8)] + [
            random_spanning_model(rng, min_primes=7, max_primes=9, ranks=(1, 2, 3))
            for _ in range(3)
        ]
        coprime = 0
        for m in models:
            members = enumerate_v(m)
            for size, count in ((2, 12), (3, 6)):
                for _ in range(count):
                    tup = rng.sample(members, size)
                    raw = product_coprime_raw(m, tup)
                    assert raw == raw_coprime(members, tup), (m, tup)
                    coprime += raw
        assert coprime > 0

    def test_raw_can_disagree_with_supports_criterion(self):
        m = gen_d3(4)
        tup = [{"R1", "R2"}, {"R2", "R3"}]
        assert product_coprime_raw(m, tup)  # escape through {R0}
        assert not product_coprime_supports(tup)  # shared prime R2


class TestProductProper:
    def test_star_is_proper(self):
        m = gen_d1(4)
        assert is_product_proper(m, nu(m, "P0"))

    def test_disjoint_pair_is_not(self):
        m = gen_d1(4)
        assert not is_product_proper(m, [{"P0", "P1"}, {"P2", "P3"}])

    def test_pairwise_overlap_is_not_enough(self):
        m = torsion(3)
        fam = [{"P0", "P1"}, {"P1", "P2"}, {"P0", "P2"}]
        assert not is_product_proper(m, fam)

    def test_singleton_family(self):
        m = gen_d1(4)
        assert is_product_proper(m, [{"P0", "P1"}])

    def test_full_family_rejected(self):
        m = gen_d1(4)
        with pytest.raises(ValueError):
            is_product_proper(m, enumerate_v(m))


class TestStars:
    def test_star_members(self):
        m = gen_d1(4)
        assert set(nu(m, "P0")) == {
            frozenset({"P0", "P1"}),
            frozenset({"P0", "P3"}),
            frozenset({"P0", "P1", "P2"}),
            frozenset({"P0", "P1", "P3"}),
            frozenset({"P0", "P2", "P3"}),
            frozenset({"P0", "P1", "P2", "P3"}),
        }

    def test_star_is_the_members_through_the_prime(self):
        models = [gen(k) for gen in (gen_d1, gen_d2, gen_d3) for k in range(2, 13)]
        rng = fresh_rng(salt=65)
        models += [random_spanning_model(rng, max_primes=10) for _ in range(60)]
        for m in models:
            members = enumerate_v(m)
            for pid in m.ids():
                assert nu(m, pid) == tuple(s for s in members if pid in s)
            with pytest.raises(ValueError, match="unknown prime ids"):
                nu(m, "X")

    def test_star_unknown_prime(self):
        with pytest.raises(ValueError):
            nu(gen_d1(4), "P9")

    def test_theta_inverts_nu(self):
        m = gen_d1(4)
        for pid in m.ids():
            assert theta(m, nu(m, pid)) == pid

    def test_theta_on_partial_star(self):
        m = gen_d1(4)
        assert theta(m, [{"P0", "P1"}, {"P0", "P3"}]) == "P0"

    def test_theta_needs_unique_common_prime(self):
        m = gen_d1(4)
        with pytest.raises(StructureError):
            theta(m, [{"P0", "P1"}])

    def test_theta_empty_family(self):
        with pytest.raises(ValueError):
            theta(gen_d1(4), [])

    def test_theta_names_every_unknown_id(self):
        with pytest.raises(ValueError) as err:
            theta(gen_d1(4), [{"P0", "P9"}, {"P0", "Q", "P7"}, {"P0", "P1"}])
        assert str(err.value) == "unknown prime ids: ['P7', 'P9', 'Q']"


class TestMaximalFamilies:
    def test_alternating_four(self):
        m = gen_d1(4)
        assert mprop(m) == tuple(nu(m, pid) for pid in m.ids())

    def test_matches_exhaustive_search(self):
        # the exhaustive oracle is doubly exponential; keep it to the
        # smallest witness-rich models
        for m in (torsion(3), gen_d1(4)):
            got = {frozenset(fam) for fam in mprop(m)}
            assert got == maximal_product_proper(enumerate_v(m))

    def test_refuses_model_with_uncovered_prime(self):
        with pytest.raises(PreconditionError) as err:
            mprop(gen_d3(4))
        assert "witness-rich" in str(err.value)

    def test_stars_are_wrong_below_the_threshold(self):
        # at this truncation the common-prime criterion and the raw
        # definition part ways: the star of R2 passes the criterion but
        # hides a raw-coprime pair, and the exhaustive search finds only
        # three maximal families.  Refusal is the only honest answer.
        m = gen_d3(4)
        members = enumerate_v(m)
        assert product_coprime_raw(m, [{"R1", "R2"}, {"R2", "R3"}])
        assert is_product_proper(m, nu(m, "R2"))  # criterion verdict
        assert not product_proper_by_raw(members, nu(m, "R2"))
        got = maximal_product_proper(members)
        assert got == {
            frozenset(nu(m, "R0")),
            frozenset(nu(m, "R1")),
            frozenset(nu(m, "R3")),
        }

    def test_one_more_prime_restores_the_stars(self):
        m = gen_d3(5)
        fams = mprop(m)
        assert len(fams) == 5
        assert all(theta(m, fam) == pid for fam, pid in zip(fams, m.ids()))


class TestFindIso:
    def test_alternating_to_halving(self):
        eta = find_iso(gen_d1(4), gen_d2(4))
        assert eta == {"P0": "Q0", "P1": "Q1", "P2": "Q2", "P3": "Q3"}

    def test_self_identity(self):
        m = gen_d1(4)
        assert find_iso(m, m) == {pid: pid for pid in m.ids()}

    def test_distinguishes_degenerate_family(self):
        assert find_iso(gen_d1(4), gen_d3(4)) is None

    def test_prime_count_mismatch(self):
        assert find_iso(gen_d1(4), gen_d1(6)) is None

    def test_family_size_mismatch(self):
        assert find_iso(torsion(3), gen_d1(3)) is None

    def test_exhaustive_search_finds_none(self):
        # both positively span and are witness-rich, with |V| = 441, 36
        # circuits and equal sorted circuit signatures: only the backtrack
        # over every candidate map tells them apart
        a = [(0, 3, 1), (-3, 3, 2), (2, 1, -1), (-1, 3, 1), (0, -2, -1),
             (-3, -2, -1), (2, -1, 3), (2, 0, -1), (1, 0, 0), (-3, -1, -2)]
        b = [(2, 3, 2), (-3, -3, 3), (2, -1, 1), (-1, 1, -2), (0, -2, -1),
             (0, -1, -2), (1, -3, 0), (1, -1, 3), (-2, 2, 2), (3, 1, 1)]
        ma = Model(3, [(f"a{i}", v) for i, v in enumerate(a)])
        mb = Model(3, [(f"b{i}", v) for i, v in enumerate(b)])
        assert len(enumerate_v(ma)) == len(enumerate_v(mb)) == 441
        assert len(v_circuits(ma)) == len(v_circuits(mb)) == 36
        assert find_iso(ma, mb) is None
        assert iso_by_images(enumerate_v(ma), ma.ids(), enumerate_v(mb), mb.ids()) is None
        rng = fresh_rng(salt=47)
        for m in (ma, mb):
            names = [f"q{i}" for i in range(10)]
            rng.shuffle(names)
            other = transform(
                relabeled(m, dict(zip(m.ids(), names))),
                random_invertible_matrix(rng, 3),
                random_positive_scales(rng, names),
            )
            eta = find_iso(m, other)
            assert eta is not None
            assert {frozenset(map(eta.get, s)) for s in enumerate_v(m)} == set(enumerate_v(other))

    def test_lex_least_on_symmetric_model(self):
        m = torsion(3)
        assert find_iso(m, m) == {pid: pid for pid in m.ids()}

    def test_found_map_transports_the_family(self):
        rng = fresh_rng(salt=42)
        for _ in range(10):
            m = random_model(rng, 3, 6)
            perm = list(m.ids())
            rng.shuffle(perm)
            relabel = dict(zip(m.ids(), perm))
            from modelgen import relabeled

            other = relabeled(m, relabel)
            eta = find_iso(m, other)
            assert eta is not None
            va = enumerate_v(m)
            vb = set(enumerate_v(other))
            assert {frozenset(eta[p] for p in s) for s in va} == vb

    def test_matches_permutation_oracle(self):
        # relabelled copies (names shuffled, so the least map is rarely the
        # identity), unrelated pairs of equal size, and the d1/d2/d3 families
        rng = fresh_rng(salt=43)
        pairs = [
            (fam_a(k), fam_b(k))
            for k in range(3, 7)
            for fam_a in (gen_d1, gen_d2, gen_d3)
            for fam_b in (gen_d1, gen_d2, gen_d3)
        ]
        while len(pairs) < 100:
            m = random_model(rng, 3, 6)
            if rng.random() < 0.5:
                names = [f"q{i}" for i in range(len(m.ids()))]
                rng.shuffle(names)
                pairs.append((m, relabeled(m, dict(zip(m.ids(), names)))))
            else:
                n = len(m.ids())
                pairs.append((m, random_model(rng, n, n)))
        found = 0
        for ma, mb in pairs:
            want = iso_by_permutations(
                enumerate_v(ma), ma.ids(), enumerate_v(mb), mb.ids()
            )
            assert find_iso(ma, mb) == want, (ma, mb)
            found += want is not None
        assert 40 < found < len(pairs)

    def test_matches_image_table_oracle_past_six_primes(self):
        # the d-families against each other, then random models of rank 1-4,
        # each against a shuffled relabelling and an unrelated model of the
        # same number of primes
        rng = fresh_rng(salt=45)
        models = {
            (gen, k): gen(k) for gen in (gen_d1, gen_d2, gen_d3) for k in range(7, 13)
        }
        pairs = [
            (models[fam_a, k], models[fam_b, k])
            for k in range(7, 13)
            for fam_a in (gen_d1, gen_d2, gen_d3)
            for fam_b in (gen_d1, gen_d2, gen_d3)
        ]
        for _ in range(60):
            m = random_model(rng, 7, 12, ranks=(1, 2, 3, 4))
            n = len(m.ids())
            names = [f"q{i:02d}" for i in range(n)]
            rng.shuffle(names)
            pairs.append((m, relabeled(m, dict(zip(m.ids(), names)))))
            pairs.append((m, random_model(rng, n, n, ranks=(1, 2, 3, 4))))
        found = 0
        for ma, mb in pairs:
            want = iso_by_images(enumerate_v(ma), ma.ids(), enumerate_v(mb), mb.ids())
            assert find_iso(ma, mb) == want, (ma, mb)
            found += want is not None
        assert 80 < found < len(pairs)

    def test_leaves_no_reference_cycle(self):
        # the backtrack must not be a closure that calls itself: each call
        # would leave a cycle for the cycle collector
        m = gen_d1(8)
        names = [f"q{i}" for i in range(8)]
        fresh_rng(salt=46).shuffle(names)
        other = relabeled(m, dict(zip(m.ids(), names)))
        gc.collect()
        gc.disable()
        try:
            eta = find_iso(m, other)
            freed = gc.collect()
        finally:
            gc.enable()
        assert eta is not None
        assert freed == 0


class TestExtendIso:
    @staticmethod
    def _support_map(ma, mb, eta):
        return [
            (s, frozenset(eta[p] for p in s)) for s in enumerate_v(ma)
        ]

    def test_identity_transport(self):
        ma, mb = gen_d1(4), gen_d2(4)
        eta = {"P0": "Q0", "P1": "Q1", "P2": "Q2", "P3": "Q3"}
        got, verified = extend_iso(ma, mb, self._support_map(ma, mb, eta))
        assert got == eta
        assert verified

    def test_swap_automorphism(self):
        m = gen_d1(4)
        swap = {"P0": "P2", "P1": "P1", "P2": "P0", "P3": "P3"}
        got, verified = extend_iso(m, m, self._support_map(m, m, swap))
        assert got == swap
        assert verified

    def test_missing_member(self):
        m = gen_d1(4)
        pairs = self._support_map(m, m, {p: p for p in m.ids()})[:-1]
        with pytest.raises(ValueError, match="defined on exactly"):
            extend_iso(m, m, pairs)

    def test_duplicate_source(self):
        m = gen_d1(4)
        pairs = self._support_map(m, m, {p: p for p in m.ids()})
        pairs.append(pairs[0])
        with pytest.raises(ValueError, match="twice"):
            extend_iso(m, m, pairs)

    def test_not_onto(self):
        m = gen_d1(4)
        pairs = dict(self._support_map(m, m, {p: p for p in m.ids()}))
        pairs[frozenset({"P0", "P3"})] = frozenset({"P0", "P1"})
        with pytest.raises(ValueError, match="onto"):
            extend_iso(m, m, pairs)

    def test_not_union_preserving(self):
        m = gen_d1(4)
        pairs = dict(self._support_map(m, m, {p: p for p in m.ids()}))
        a, b = frozenset({"P0", "P1"}), frozenset({"P0", "P3"})
        pairs[a], pairs[b] = pairs[b], pairs[a]
        with pytest.raises(ValueError, match="preserve products"):
            extend_iso(m, m, pairs)

    def test_refuses_uncovered_models(self):
        m = gen_d3(4)
        pairs = [(s, s) for s in enumerate_v(m)]
        with pytest.raises(PreconditionError, match="witness-rich"):
            extend_iso(m, m, pairs)

    def test_swapped_images_match_the_all_pairs_oracle(self, spanning_population):
        # phi is induced by a shuffled renaming of each model, then has the
        # images of two random members swapped; d3 puts the one-prime circuit
        # {R0} under test, since the union check runs before the witness-rich
        # refusal
        rng = fresh_rng(salt=62)
        rich = [
            m
            for m in spanning_population
            if len(m.ids()) <= 7 and validate(m).witness_rich
        ]
        models = rich[:20] + [
            gen(k) for k in range(3, 8) for gen in (gen_d1, gen_d2, gen_d3)
        ]
        accepted = rejected = 0
        for ma in models:
            names = list(ma.ids())
            rng.shuffle(names)
            rename = dict(zip(ma.ids(), names))
            mb = relabeled(ma, rename)
            va = enumerate_v(ma)
            circuits = minimal_members(va)
            for swapped in range(7):
                phi = {s: frozenset(rename[p] for p in s) for s in va}
                if swapped:
                    a, b = rng.sample(va, 2)
                    phi[a], phi[b] = phi[b], phi[a]
                failures = union_failures(va, phi)
                if not failures:
                    try:
                        extend_iso(ma, mb, phi)
                    except PreconditionError:
                        pass
                    accepted += 1
                    continue
                x, c = next((x, y) for x, y in failures if y in circuits)
                with pytest.raises(ValueError) as err:
                    extend_iso(ma, mb, phi)
                assert str(err.value) == (
                    f"phi does not preserve products: breaks at "
                    f"{sorted(x)} and {sorted(c)}"
                )
                rejected += 1
        assert accepted >= len(models)
        assert rejected > 100
