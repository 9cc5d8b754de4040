"""Quotient presentations and the ready-made counterexample families."""

from fractions import Fraction

import pytest

from radrank import (
    RelationSet,
    claborn_model,
    d1_relations,
    d2_relations,
    d3_relations,
    enumerate_v,
    gen_d1,
    gen_d2,
    gen_d3,
    linear_rank,
)
from radrank.claborn import prime_name

F = Fraction


class TestRelationSet:
    def test_needs_a_generator(self):
        with pytest.raises(ValueError):
            RelationSet(0, ())

    def test_width_must_match(self):
        with pytest.raises(ValueError):
            RelationSet(2, ((1,),))

    def test_rows_are_coerced_to_int_tuples(self):
        rel = RelationSet(2, [[1, 0]])
        assert rel.relations == ((1, 0),)


class TestPrimeName:
    def test_single_digit_run(self):
        assert prime_name("P", 3, 10) == "P3"

    def test_padding_appears_at_eleven(self):
        assert prime_name("P", 3, 11) == "P03"
        assert prime_name("P", 10, 11) == "P10"

    def test_names_sort_like_indices(self):
        names = [prime_name("x", i, 25) for i in range(25)]
        assert names == sorted(names)


class TestClabornModel:
    def test_single_sum_relation(self):
        m = claborn_model(RelationSet(2, ((1, 1),)))
        assert m.ambient_rank == 1
        assert enumerate_v(m) == (frozenset({"x0", "x1"}),)

    def test_no_relations_gives_free_classes(self):
        m = claborn_model(RelationSet(2, ()))
        assert m.ambient_rank == 2
        assert m.vectors() == ((F(1), F(0)), (F(0), F(1)))
        assert enumerate_v(m) == ()

    def test_no_relations_is_the_zero_relation(self):
        for k in range(1, 6):
            assert claborn_model(RelationSet(k, ())) == claborn_model(
                RelationSet(k, ((0,) * k,))
            )

    def test_killing_the_only_generator(self):
        m = claborn_model(RelationSet(1, ((1,),)))
        assert m.ambient_rank == 0
        assert m.vectors() == ((),)
        assert enumerate_v(m) == (frozenset({"x0"}),)

    def test_prefix_controls_ids(self):
        m = claborn_model(RelationSet(2, ((1, 1),)), prefix="w")
        assert m.ids() == ("w0", "w1")


class TestRelationBuilders:
    def test_adjacent_sums(self):
        assert d1_relations(4).relations == (
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 0, 1, 1),
        )

    def test_adjacent_double_sums(self):
        assert d2_relations(4).relations == (
            (1, 2, 0, 0),
            (0, 1, 2, 0),
            (0, 0, 1, 2),
        )

    def test_killed_head_then_sums(self):
        assert d3_relations(4).relations == (
            (1, 0, 0, 0),
            (0, 1, 1, 0),
            (0, 0, 1, 1),
        )

    @pytest.mark.parametrize(
        "builder", [d1_relations, d2_relations, d3_relations]
    )
    def test_too_short(self, builder):
        with pytest.raises(ValueError):
            builder(1)


class TestClosedForms:
    def test_alternating_units(self):
        m = gen_d1(4)
        assert m.ids() == ("P0", "P1", "P2", "P3")
        assert m.vectors() == ((F(1),), (F(-1),), (F(1),), (F(-1),))

    def test_alternating_halvings(self):
        m = gen_d2(4)
        assert m.vectors() == ((F(1),), (F(-1, 2),), (F(1, 4),), (F(-1, 8),))

    def test_killed_head(self):
        m = gen_d3(4)
        assert m.vectors() == ((F(0),), (F(1),), (F(-1),), (F(1),))

    @pytest.mark.parametrize("builder", [gen_d1, gen_d2, gen_d3])
    def test_too_short(self, builder):
        with pytest.raises(ValueError):
            builder(1)


def constant_ratio(quotient, closed):
    """The single nonzero factor between two parallel rank-one class lists,
    or None if the lists are not proportional with matched zero sets."""
    ratio = None
    for q, c in zip(quotient, closed):
        if (q[0] == 0) != (c[0] == 0):
            return None
        if c[0] == 0:
            continue
        r = q[0] / c[0]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


class TestQuotientAgreesWithClosedForm:
    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize(
        "relations,closed,prefix",
        [
            (d1_relations, gen_d1, "P"),
            (d2_relations, gen_d2, "Q"),
            (d3_relations, gen_d3, "R"),
        ],
    )
    def test_same_family_and_proportional_classes(
        self, k, relations, closed, prefix
    ):
        quotient = claborn_model(relations(k), prefix=prefix)
        direct = closed(k)
        assert quotient.ids() == direct.ids()
        assert quotient.ambient_rank == direct.ambient_rank == 1
        assert linear_rank(quotient.vectors()) == 1
        assert enumerate_v(quotient) == enumerate_v(direct)
        ratio = constant_ratio(quotient.vectors(), direct.vectors())
        assert ratio is not None and ratio != 0
