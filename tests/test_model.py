"""Class-data models: membership, enumeration, validation, serialization."""

import json
import sys
from dataclasses import replace
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
from oracles import decision_pairs, int_exponent_zero, minimal_members, v_by_lp
import radrank.cli
import radrank.model
import radrank.ratlin
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
    linear_rank,
    load_model,
    loads_model,
    save_model,
    sort_supports,
    transform,
    v_membership,
    validate,
)
from radrank.model import loads_json, v_circuits, v_joined

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
        with pytest.raises(ValueError, match="nonnegative"):
            Model(-1, [("a", ())])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Model(1, [])
        for pid in ("", 3):
            with pytest.raises(ValueError, match="nonempty string"):
                Model(1, [(pid, (1,))])

    def test_accepts_mapping(self):
        m = Model(1, {"a": (1,), "b": (-1,)})
        assert m.ids() == ("a", "b")

    def test_inputs_are_rank_and_primes(self):
        # the cache is no input: a replaced model enumerates its own V
        m = gen_d1(4)
        enumerate_v(m)
        other = replace(m, primes=gen_d3(4).primes)
        assert enumerate_v(other) == enumerate_v(gen_d3(4))
        with pytest.raises(TypeError):
            Model(1, m.primes, {})

    def test_rank_zero_model(self):
        m = Model(0, [("a", ()), ("b", ())])
        assert m.vectors() == ((), ())

    def test_random_model_draws_only_ranks_that_fit(self):
        # rank 3 needs four primes, so with exactly three only ranks 0-2 fit
        rng = fresh_rng(salt=20)
        models = [random_model(rng, 3, 3) for _ in range(60)]
        assert all(len(m.ids()) == 3 for m in models)
        assert {m.ambient_rank for m in models} == {0, 1, 2}


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
        with pytest.raises(ValueError, match="unknown prime id"):
            gen_d1(4).vector("P9")

    def test_empty_support(self):
        with pytest.raises(ValueError):
            v_membership(gen_d1(4), set())

    def test_refusals_and_cached_verdicts_around_enumeration(self, monkeypatch):
        # unknown ids and an empty support are refused before and after V is
        # known; a verdict cached by an LP, or one V's index gives, comes
        # back with no LP
        lps = []
        real_szc = radrank.model.strict_zero_combination

        def counted_szc(gens):
            lps.append(len(gens))
            return real_szc(gens)

        monkeypatch.setattr(radrank.model, "strict_zero_combination", counted_szc)
        m = gen_d1(6)

        def refusals():
            for bad in ({"P9"}, ["P0", "P9"], iter(["P9"])):
                with pytest.raises(ValueError, match="unknown prime ids"):
                    v_membership(m, bad)
            for empty in (set(), [], frozenset(), iter(())):
                with pytest.raises(ValueError, match="at least one prime"):
                    v_membership(m, empty)

        refusals()
        assert lps == []
        assert v_membership(m, ["P1", "P0"]) and lps == [2]
        assert v_membership(m, iter(["P0", "P1"])) and lps == [2]
        members = set(enumerate_v(m))
        assert lps == [2]
        refusals()
        for size in range(1, 7):
            for combo in combinations(m.ids(), size):
                assert v_membership(m, reversed(combo)) == (frozenset(combo) in members)
        assert lps == [2]

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

    def test_a_failed_pass_leaves_no_partial_v(self, monkeypatch):
        # v_membership answers from V's index while the pass fills it, so a
        # partial index left behind would call later members non-members
        m = gen_d1(8)
        calls = []
        real_membership = radrank.model.v_membership

        def failing(model, support):
            calls.append(support)
            if len(calls) == 100:
                raise RuntimeError("injected failure")
            return real_membership(model, support)

        monkeypatch.setattr(radrank.model, "v_membership", failing)
        with pytest.raises(RuntimeError, match="injected failure"):
            enumerate_v(m)
        assert len(calls) == 100
        assert "V" not in m._cache
        monkeypatch.undo()
        verdicts = v_by_lp(m)
        assert enumerate_v(m) == tuple(s for s, ok in verdicts.items() if ok)

    def test_full_family_iff_all_classes_zero(self):
        rng = fresh_rng(salt=32)
        for _ in range(15):
            m = random_model(rng, 3, 5)
            n = len(m.ids())
            full = 2**n - 1
            all_zero = all(all(x == 0 for x in v) for v in m.vectors())
            assert (len(enumerate_v(m)) == full) == all_zero


def _degenerate_model(rng):
    """Rank 0-4, 1-9 primes; classes drawn from a span of at most the ambient
    rank, with zero and repeated classes mixed in."""
    r = rng.randint(0, 4)
    zero = tuple(F(0) for _ in range(r))
    basis = [
        tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r))
        for _ in range(rng.randint(0, r))
    ]
    classes = []
    for _ in range(rng.randint(1, 9)):
        draw = rng.random()
        if classes and draw < 0.2:
            classes.append(rng.choice(classes))
        elif draw < 0.35 or not basis:
            classes.append(zero)
        else:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            classes.append(
                tuple(sum(c * b[d] for c, b in zip(coeffs, basis)) for d in range(r))
            )
    return Model(r, [(f"q{i}", v) for i, v in enumerate(classes)])


class TestEnumerateVAgainstLP:
    """enumerate_v's union closure against one LP per subset, its members'
    sorted id tuples, and the circuits the sweep flags against V's minimal
    members.  Once V is known, v_membership answers every subset from it,
    with no LP."""

    @pytest.fixture
    def lps(self, monkeypatch):
        lps = []
        real_szc = radrank.model.strict_zero_combination

        def counted_szc(gens):
            lps.append(len(gens))
            return real_szc(gens)

        monkeypatch.setattr(radrank.model, "strict_zero_combination", counted_szc)
        return lps

    def _check(self, m, lps):
        verdicts = v_by_lp(m)
        members = enumerate_v(m)
        assert members == tuple(s for s, ok in verdicts.items() if ok)
        assert v_joined(m, m.ids(), tuple) == tuple(tuple(sorted(s)) for s in members)
        ids = m.ids()
        assert v_circuits(m) == tuple(
            sum(1 << ids.index(p) for p in c) for c in minimal_members(members)
        )
        for s, ok in verdicts.items():
            assert v_membership(m, s) == ok
        assert not any(
            isinstance(key, tuple) and key[0] == "member" for key in m._cache
        )
        assert lps == []

    def test_d_families(self, lps):
        # the generators need at least two primes; one prime is covered below
        for gen in (gen_d1, gen_d2, gen_d3):
            for k in range(2, 13):
                self._check(gen(k), lps)

    def test_random_models(self, lps):
        rng = fresh_rng(salt=33)
        models = [random_model(rng, 1, 9, ranks=range(5)) for _ in range(200)]
        models += [_degenerate_model(rng) for _ in range(300)]
        for m in models:
            self._check(m, lps)
        vecs = [m.vectors() for m in models]
        # the population holds every shape the closure has to get right
        assert {m.ambient_rank for m in models} == {0, 1, 2, 3, 4}
        assert {len(v) for v in vecs} == set(range(1, 10))
        assert sum(linear_rank(v) < m.ambient_rank for m, v in zip(models, vecs)) >= 50
        assert sum(any(not any(x) for x in v) for v in vecs) >= 50
        assert sum(len(set(v)) < len(v) for v in vecs) >= 50


class TestEnumerateVLPCount:
    """Only uncovered subsets of at most rank + 1 primes reach a walk
    decision, each (independent prefix, larger index) once, and the sweep
    runs no LP."""

    def _decided_sizes(self, monkeypatch, walk_decisions, m):
        lps = []
        real_szc = radrank.model.strict_zero_combination
        real_phase_one = radrank.ratlin._phase_one

        def counted_szc(gens):
            lps.append(len(gens))
            return real_szc(gens)

        def counted_phase_one(n, equations):
            lps.append(n)
            return real_phase_one(n, equations)

        monkeypatch.setattr(radrank.model, "strict_zero_combination", counted_szc)
        monkeypatch.setattr(radrank.ratlin, "_phase_one", counted_phase_one)
        enumerate_v(m)
        assert lps == []
        assert walk_decisions == decision_pairs(m.vectors())
        # each decision tests its prefix with one more prime
        return [bin(prefix).count("1") + 1 for prefix, _ in walk_decisions]

    def test_rank_one(self, monkeypatch, walk_decisions):
        sizes = self._decided_sizes(monkeypatch, walk_decisions, gen_d1(12))
        assert 0 < len(sizes) <= 12 + 66  # C(12, 1) + C(12, 2)
        assert max(sizes) == 2

    def test_rank_three(self, monkeypatch, walk_decisions):
        m = random_model(fresh_rng(salt=34), 12, 12, ranks=(3,))
        assert linear_rank(m.vectors()) == 3
        sizes = self._decided_sizes(monkeypatch, walk_decisions, m)
        assert 0 < len(sizes) <= 12 + 66 + 220 + 495  # sum of C(12, k), k <= 4
        assert max(sizes) == 4


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
        for m in (Model(0, [("a", ())]), Model(1, {"b": (F(1, 2),), "a": (-3,)})):
            assert loads_model(dumps_model(m)) == m

    def test_failed_save_keeps_the_file(self, tmp_path):
        # the class entry has more digits than str() may write, so dumping
        # fails, and must fail before the target is opened
        path = tmp_path / "model.json"
        path.write_text("old\n")
        m = Model(1, [("a", (F(10**5000),)), ("b", (-1,))])
        with pytest.raises(ValueError):
            save_model(m, str(path))
        assert path.read_text() == "old\n"

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

    def test_undecodable_file_names_the_byte(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"ambient_rank": 1, "primes": \xff}')
        with pytest.raises(ModelFormatError, match="^not UTF-8 at byte 30$"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "text,where",
        [
            ('{"ambient_rank": ' + "1" * 5000 + ', "primes": []}', "line 1 column 18"),
            # digit runs in strings, fractions and exponents are no ints
            (
                '{"s": "' + "2" * 5000 + '",\n "f": [-' + "3" * 5000 + ".5, 1e"
                + "4" * 5000 + ", -" + "1" * 5000 + "]}",
                "line 2 column 10017",
            ),
        ],
    )
    def test_number_past_the_digit_limit_is_located(self, text, where):
        with pytest.raises(ModelFormatError) as err:
            loads_model(text)
        assert str(err.value) == (
            f"{where}: integer of 5000 digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit"
        )

    @pytest.mark.parametrize(
        "text,column",
        [
            (r'["\ud83d\ude00", "\uD83D\uDE00"]', None),
            (r'["\\ud800"]', None),
            (r'["\\\ud800"]', 5),
            (r'["\udc00"]', 3),
            (r'["\ud800\u0041"]', 3),
            (r'["\ud800", "\udc00"]', 3),
            (r'{"a": 1, "\uDBFF": 2}', 11),
        ],
    )
    def test_lone_surrogates_are_located(self, text, column):
        if column is None:
            loads_json(text)
        else:
            with pytest.raises(ModelFormatError, match=f"^line 1 column {column}: lone"):
                loads_json(text)

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(ModelFormatError, match="^JSON nested too deeply$"):
            loads_model("[" * 100000)

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


_A = {"id": "a", "class": ["1"]}
_B = {"id": "b", "class": ["-1"]}


def _doc(rank=1, primes=None):
    return {"ambient_rank": rank, "primes": [_A, _B] if primes is None else primes}


_ID_FAULT = "primes[{}].id: expected a nonempty string"


# Model files with one fault each: (document, loads_model's message, and the
# same fault as `Model` arguments, or None for a fault of the file's shape).
FAULTS = [
    (_doc(-1), "ambient_rank: expected a nonnegative integer", (-1, [("a", (1,))])),
    (_doc(1.0), "ambient_rank: expected a nonnegative integer", (1.0, [("a", (1,))])),
    (_doc(True), "ambient_rank: expected a nonnegative integer", (True, [("a", (1,))])),
    (_doc("1"), "ambient_rank: expected a nonnegative integer", ("1", [("a", (1,))])),
    ({"primes": [_A, _B]}, "missing field: ambient_rank", None),
    (_doc(1, []), "primes: expected a nonempty array", (1, [])),
    ({"ambient_rank": 1, "primes": {}}, "primes: expected a nonempty array", None),
    (_doc(1, [5]), "primes[0]: expected an object", None),
    (_doc(1, [{"id": "", "class": ["1"]}, _B]), _ID_FAULT.format(0), (1, [("", (1,)), ("b", (-1,))])),
    (_doc(1, [{"id": 3, "class": ["1"]}, _B]), _ID_FAULT.format(0), (1, [(3, (1,)), ("b", (-1,))])),
    (_doc(1, [_A, {"id": [], "class": ["1"]}]), _ID_FAULT.format(1), (1, [("a", (1,)), ([], (1,))])),
    (_doc(1, [{"class": ["1"]}, _B]), _ID_FAULT.format(0), (1, [(None, (1,)), ("b", (-1,))])),
    (
        _doc(1, [_A, {"id": "a", "class": ["-1"]}]),
        "duplicate prime id 'a'",
        (1, [("a", (1,)), ("a", (-1,))]),
    ),
    (_doc(1, [{"id": "a"}, _B]), "primes[0].class: expected an array", None),
    (
        _doc(1, [{"id": "a", "class": ["1", "2"]}, _B]),
        "primes[0].class: expected 1 entries, got 2",
        (1, [("a", (1, 2)), ("b", (-1,))]),
    ),
    (
        _doc(1, [_A, {"id": "b", "class": ["1", "2"]}]),
        "primes[1].class: expected 1 entries, got 2",
        (1, [("a", (1,)), ("b", (1, 2))]),
    ),
    (
        _doc(1, [_A, {"id": "b", "class": ["x"]}]),
        "primes[1].class[0]: invalid rational literal: 'x'",
        None,
    ),
    (
        _doc(1, [_A, {"id": "b", "class": ["1/0"]}]),
        "primes[1].class[0]: zero denominator: '1/0'",
        None,
    ),
    (
        _doc(2**70),
        "primes[0].class: expected 1180591620717411303424 entries, got 1",
        (2**70, [("a", (1,)), ("b", (-1,))]),
    ),
]


@pytest.mark.parametrize("doc,message,args", FAULTS)
def test_one_fault_one_message(doc, message, args, tmp_path, capsys):
    # the loader, the CLI and `Model` give a value fault the same text
    with pytest.raises(ModelFormatError) as err:
        loads_model(json.dumps(doc))
    assert str(err.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert radrank.cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    if args is not None:
        with pytest.raises(ValueError) as err:
            Model(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("rank", [1.0, True, F(1)])
def test_model_refuses_a_rank_that_only_equals_an_int(rank):
    with pytest.raises(ValueError, match="^ambient_rank: expected a nonnegative integer$"):
        Model(rank, [("a", (1,)), ("b", (-1,))])
