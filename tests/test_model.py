"""Class-data models: membership, enumeration, validation, serialization."""

from fractions import Fraction
from itertools import combinations

import pytest

from modelgen import (
    fresh_rng,
    random_invertible_matrix,
    random_model,
    random_positive_scales,
    zero_model,
)
from oracles import int_exponent_zero
from radrank import (
    Model,
    ModelFormatError,
    ResourceLimitError,
    claborn_model,
    d2_relations,
    dumps_model,
    enumerate_v,
    gen_d1,
    gen_d2,
    gen_d3,
    load_model,
    loads_model,
    save_model,
    sort_supports,
    transform,
    v_membership,
    validate,
)

F = Fraction


class TestModelConstruction:
    def test_primes_sorted_by_id(self):
        m = Model(1, [("b", (1,)), ("a", (2,))])
        assert m.ids() == ("a", "b")
        assert m.vector("a") == (F(2),)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Model(1, [("a", (1,)), ("a", (2,))])

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            Model(2, [("a", (1,))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Model(1, [])

    def test_accepts_mapping(self):
        m = Model(1, {"a": (1,), "b": (-1,)})
        assert m.ids() == ("a", "b")

    def test_rank_zero_model(self):
        m = Model(0, [("a", ()), ("b", ())])
        assert m.vectors() == ((), ())


class TestVMembership:
    def test_opposite_pair_is_principal(self):
        m = gen_d1(4)
        assert v_membership(m, {"P0", "P1"})

    def test_same_sign_pair_is_not(self):
        m = gen_d1(4)
        assert not v_membership(m, {"P0", "P2"})

    def test_all_zero_classes_accept_everything(self):
        m = zero_model(2, 4)
        ids = m.ids()
        for size in range(1, 5):
            for combo in combinations(ids, size):
                assert v_membership(m, combo)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            v_membership(gen_d1(4), {"P9"})

    def test_empty_support(self):
        with pytest.raises(ValueError):
            v_membership(gen_d1(4), set())

    def test_agrees_with_integer_exponent_search(self):
        # denominator-free classes, few primes: direct bounded search over
        # integer exponent vectors must give the same verdicts
        rng = fresh_rng(salt=30)
        for _ in range(25):
            n = rng.randrange(2, 5)
            r = rng.randrange(1, 3)
            pairs = [
                (f"q{i}", tuple(F(rng.randint(-3, 3)) for _ in range(r)))
                for i in range(n)
            ]
            m = Model(r, pairs)
            for size in range(1, n + 1):
                for combo in combinations(m.ids(), size):
                    vecs = [m.vector(p) for p in combo]
                    ints = [[x.numerator for x in v] for v in vecs]
                    assert v_membership(m, combo) == int_exponent_zero(ints)


class TestEnumerateV:
    def test_two_prime_alternating(self):
        assert enumerate_v(gen_d1(2)) == (frozenset({"P0", "P1"}),)

    def test_two_prime_torsion(self):
        got = enumerate_v(zero_model(0, 2, prefix="t"))
        assert got == (
            frozenset({"t0"}),
            frozenset({"t1"}),
            frozenset({"t0", "t1"}),
        )

    def test_zero_class_singleton(self):
        assert enumerate_v(gen_d3(2)) == (frozenset({"R0"}),)

    def test_canonical_order(self):
        got = enumerate_v(gen_d1(4))
        assert got == sort_supports(got)
        assert len(got) == 9

    def test_bound(self):
        big = Model(1, [(f"p{i:02d}", (1,)) for i in range(13)])
        with pytest.raises(ResourceLimitError, match="enumerating V.*WORK_BUDGET"):
            enumerate_v(big)

    def test_union_closure(self):
        rng = fresh_rng(salt=31)
        for _ in range(15):
            m = random_model(rng, 3, 6)
            members = enumerate_v(m)
            family = set(members)
            for a in members:
                for b in members:
                    assert a | b in family

    def test_full_family_iff_all_classes_zero(self):
        rng = fresh_rng(salt=32)
        for _ in range(15):
            m = random_model(rng, 3, 5)
            n = len(m.ids())
            full = 2**n - 1
            all_zero = all(all(x == 0 for x in v) for v in m.vectors())
            assert (len(enumerate_v(m)) == full) == all_zero


class TestValidate:
    def test_alternating_four(self):
        report = validate(gen_d1(4))
        assert report.positively_spanning
        assert report.witness_rich
        assert report.linear_rank == 1

    def test_single_positive_class(self):
        report = validate(Model(1, [("a", (1,))]))
        assert not report.positively_spanning
        assert not report.witness_rich

    def test_torsion(self):
        report = validate(zero_model(0, 3))
        assert report.positively_spanning
        assert report.linear_rank == 0

    def test_witness_rich_matches_full_quantifier(self):
        # definition ranges over every prime P and every subset T of the
        # others; spot-check the reduction to the complement test
        rng = fresh_rng(salt=33)
        for _ in range(10):
            m = random_model(rng, 3, 5)
            ids = m.ids()
            expected = True
            for pid in ids:
                others = [q for q in ids if q != pid]
                for size in range(0, len(others) + 1):
                    for t in combinations(others, size):
                        hit = any(
                            pid not in s and set(t) <= s
                            for s in enumerate_v(m)
                        )
                        if not hit:
                            expected = False
            assert validate(m).witness_rich == expected


class TestTransform:
    def test_identity_is_fixpoint(self):
        m = gen_d1(4)
        same = transform(m, [[1]])
        assert same == m

    def test_global_scale_preserves_family(self):
        m = gen_d1(4)
        scaled = transform(m, [[3]])
        assert enumerate_v(scaled) == enumerate_v(m)

    def test_halving_family_matches_its_quotient_presentation(self):
        # the closed form (-1)^n / 2^n and the relation-quotient classes
        # (-2)^(k-1-n) differ by one invertible 1x1 matrix
        k = 4
        closed = gen_d2(k)
        quotient = claborn_model(d2_relations(k), prefix="Q")
        back = transform(closed, [[(-2) ** (k - 1)]])
        ratios = {
            b[0] / q[0]
            for b, q in zip(back.vectors(), quotient.vectors())
        }
        assert len(ratios) == 1  # one global nonzero factor
        assert enumerate_v(quotient) == enumerate_v(closed)

    def test_membership_invariance(self):
        rng = fresh_rng(salt=34)
        for _ in range(12):
            m = random_model(rng, 3, 6)
            matrix = random_invertible_matrix(rng, m.ambient_rank)
            scales = random_positive_scales(rng, m.ids())
            moved = transform(m, matrix, scales)
            assert enumerate_v(moved) == enumerate_v(m)

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError):
            transform(gen_d1(4), [[0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            transform(gen_d1(4), [[1, 0], [0, 1]])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            transform(gen_d1(4), [[1]], {"P0": F(0)})

    def test_rejects_unknown_scale_ids(self):
        with pytest.raises(ValueError):
            transform(gen_d1(4), [[1]], {"nope": F(1)})


class TestSerialization:
    def test_round_trip(self):
        rng = fresh_rng(salt=35)
        for _ in range(20):
            m = random_model(rng, 3, 6)
            assert loads_model(dumps_model(m)) == m

    def test_file_round_trip(self, tmp_path):
        m = gen_d2(4)
        path = tmp_path / "model.json"
        save_model(m, str(path))
        assert load_model(str(path)) == m

    def test_field_diagnostics(self):
        doc = '{"ambient_rank": 1, "primes": [{"id": "a", "class": ["1"]}, {"id": "b", "class": ["x"]}]}'
        with pytest.raises(ModelFormatError) as err:
            loads_model(doc)
        assert "primes[1].class[0]" in str(err.value)

    def test_wrong_class_length(self):
        doc = '{"ambient_rank": 2, "primes": [{"id": "a", "class": ["1"]}]}'
        with pytest.raises(ModelFormatError) as err:
            loads_model(doc)
        assert "primes[0].class" in str(err.value)

    def test_json_syntax_diagnostics(self):
        with pytest.raises(ModelFormatError) as err:
            loads_model('{"ambient_rank": 1,\n  "primes": [}')
        assert "line 2" in str(err.value)

    def test_missing_rank(self):
        with pytest.raises(ModelFormatError) as err:
            loads_model('{"primes": []}')
        assert "ambient_rank" in str(err.value)

    def test_duplicate_ids_rejected(self):
        doc = (
            '{"ambient_rank": 1, "primes": '
            '[{"id": "a", "class": ["1"]}, {"id": "a", "class": ["2"]}]}'
        )
        with pytest.raises(ModelFormatError):
            loads_model(doc)
