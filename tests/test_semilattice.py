"""Semilattice structure, coprimality, maximal families, isomorphisms."""

from itertools import combinations

import pytest

from modelgen import fresh_rng, random_model, zero_model
from oracles import maximal_product_proper, product_proper_by_raw, raw_coprime
from radrank import (
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
    theta,
)


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
