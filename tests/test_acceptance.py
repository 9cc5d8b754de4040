"""End-to-end checks, one per shipped guarantee.

Each check records its verdict in RESULTS; the terminal summary hook in
conftest prints one line per criterion after the run.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from modelgen import (
    fresh_rng,
    random_invertible_matrix,
    random_model,
    random_positive_scales,
    random_spanning_model,
    relabeled,
    zero_model,
)
from oracles import max_reay_by_enumeration, spans_by_negations
from radrank import (
    GeneratorSet,
    Model,
    cone_member,
    determinant,
    enumerate_v,
    extend_iso,
    extract_positive_basis,
    find_iso,
    gen_d1,
    gen_d2,
    gen_d3,
    inv_cone,
    inv_enum,
    is_positive_basis,
    linear_rank,
    lp_feasible,
    max_weak_reay,
    mprop,
    nu,
    product_coprime_raw,
    product_coprime_supports,
    recover_rank,
    smith_normal_form,
    strict_zero_combination,
    theta,
    transform,
    v_membership,
)
from radrank.cones import positively_spans_its_span
from radrank.claborn import d1_relations, d2_relations, d3_relations

F = Fraction

RESULTS = {}


@contextmanager
def criterion(num, label):
    RESULTS[num] = (label, False)
    yield
    RESULTS[num] = (label, True)


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


def test_c01_counterexample_families():
    with criterion(1, "counterexample families"):
        start = time.perf_counter()
        for k in (4, 8):
            assert recover_rank(gen_d1(k)) == 1
            assert recover_rank(gen_d2(k)) == 1
            assert recover_rank(gen_d3(k)) == 1
            eta = find_iso(gen_d1(k), gen_d2(k))
            assert eta == {f"P{n}": f"Q{n}" for n in range(k)}
            assert find_iso(gen_d1(k), gen_d3(k)) is None
            d1, d3 = gen_d1(k), gen_d3(k)
            assert any(v_membership(d3, {p}) for p in d3.ids())
            assert not any(v_membership(d1, {p}) for p in d1.ids())
        assert time.perf_counter() - start < 5.0


def test_c02_rank_recovery_matches_linear_algebra(spanning_population):
    with criterion(2, "rank recovery vs linear rank"):
        start = time.perf_counter()
        assert len(spanning_population) >= 100
        for m in spanning_population:
            assert recover_rank(m) == linear_rank(m.vectors())
        assert time.perf_counter() - start < 60.0


def test_c03_inverse_routes_agree(small_population):
    with criterion(3, "almost-inverse routes"):
        assert len(small_population) >= 50
        for m in small_population:
            ids = m.ids()
            for size in range(len(ids) + 1):
                for delta in combinations(ids, size):
                    assert inv_enum(m, delta) == inv_cone(m, delta)


def test_c04_coprimality_routes_agree(witness_rich_small):
    with criterion(4, "coprimality routes"):
        assert len(witness_rich_small) >= 10
        for m in witness_rich_small:
            members = enumerate_v(m)
            for size in (2, 3):
                for tup in combinations(members, size):
                    assert product_coprime_raw(m, tup) == (
                        product_coprime_supports(tup)
                    )
            for x in members:
                pair = (x, x)
                assert not product_coprime_raw(m, pair)
                assert not product_coprime_supports(pair)


def test_c05_maximal_families_are_stars(witness_rich_small):
    with criterion(5, "maximal families are stars"):
        assert len(witness_rich_small) >= 10
        for m in witness_rich_small:
            fams = mprop(m)
            assert fams == tuple(nu(m, pid) for pid in m.ids())
            for pid in m.ids():
                assert theta(m, nu(m, pid)) == pid
            for fam in fams:
                assert nu(m, theta(m, fam)) == fam


def test_c06_every_isomorphism_transports(witness_rich_small):
    with criterion(6, "isomorphism transport"):
        transported = 0
        for k in (4, 8):
            ma, mb = gen_d1(k), gen_d2(k)
            eta = find_iso(ma, mb)
            assert eta is not None
            phi = [
                (s, frozenset(eta[p] for p in s)) for s in enumerate_v(ma)
            ]
            _, verified = extend_iso(ma, mb, phi)
            assert verified
            transported += 1
        rng = fresh_rng(salt=60)
        while transported < 22:
            m = witness_rich_small[transported % len(witness_rich_small)]
            perm = list(m.ids())
            rng.shuffle(perm)
            other = relabeled(m, dict(zip(m.ids(), perm)))
            eta = find_iso(m, other)
            assert eta is not None
            phi = [
                (s, frozenset(eta[p] for p in s)) for s in enumerate_v(m)
            ]
            _, verified = extend_iso(m, other, phi)
            assert verified
            transported += 1
        assert transported >= 22


def test_c07_partition_count_on_positive_bases():
    with criterion(7, "partition count on positive bases"):
        catalog = []
        for n in (1, 2, 3):
            axes = []
            for i in range(n):
                e = [F(0)] * n
                e[i] = F(1)
                axes.append(tuple(e))
                axes.append(tuple(-x for x in e))
            catalog.append((n, axes))
            simplex = [
                tuple(F(1) if j == i else F(0) for j in range(n))
                for i in range(n)
            ]
            simplex.append(tuple([F(-1)] * n))
            catalog.append((n, simplex))
        rng = fresh_rng(salt=61)
        found = 0
        while found < 10:
            n = rng.randrange(1, 4)
            vecs = [
                tuple(F(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(rng.randrange(n + 1, 8))
            ]
            if linear_rank(vecs) != n or not positively_spans_its_span(vecs):
                continue
            basis = extract_positive_basis(vecs, n)
            catalog.append((n, basis))
            found += 1
        for n, x in catalog:
            gens = (
                x if isinstance(x, GeneratorSet) else GeneratorSet.from_vectors(x)
            )
            assert is_positive_basis(gens, n)
            assert len(gens.labels) <= 7
            s, blocks = max_weak_reay(gens)
            assert s == len(gens.labels) - n
            assert len(blocks) == s

            def closed(subset):
                return spans_by_negations(gens.subset(subset).vectors)

            assert s == max_reay_by_enumeration(gens.labels, closed)


def test_c08_torsion_models():
    with criterion(8, "torsion models"):
        for r in (0, 1, 2):
            for n in (1, 2, 3, 4):
                m = zero_model(r, n)
                assert len(enumerate_v(m)) == 2 ** n - 1
                assert recover_rank(m) == 0
        rng = fresh_rng(salt=62)
        checked = 0
        while checked < 20:
            m = random_model(rng, 3, 6)
            if all(all(x == 0 for x in v) for v in m.vectors()):
                continue
            n = len(m.ids())
            assert len(enumerate_v(m)) < 2 ** n - 1
            checked += 1


def test_c09_presentation_invariance():
    with criterion(9, "presentation invariance"):
        rng = fresh_rng(salt=63)
        mix = [
            gen_d1(4),
            gen_d2(4),
            gen_d3(5),
            zero_model(0, 3),
            zero_model(2, 4),
            cross_model(),
        ]
        mix += [
            random_spanning_model(rng, min_primes=3, max_primes=6)
            for _ in range(6)
        ]
        assert len(mix) == 12
        for m in mix:
            family = enumerate_v(m)
            rank = recover_rank(m)
            ids = list(m.ids())
            for _ in range(10):
                moved = transform(
                    m,
                    random_invertible_matrix(rng, m.ambient_rank),
                    random_positive_scales(rng, ids),
                )
                assert enumerate_v(moved) == family
                assert recover_rank(moved) == rank
                for s in family:
                    assert v_membership(moved, s)
                for _ in range(5):
                    probe = frozenset(
                        rng.sample(ids, rng.randrange(1, len(ids) + 1))
                    )
                    assert v_membership(moved, probe) == v_membership(m, probe)


def _mat_mul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def _check_snf(matrix):
    u, d, v = smith_normal_form(matrix)
    assert _mat_mul(_mat_mul(u, matrix), v) == d
    assert determinant(u) in (1, -1)
    assert determinant(v) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i, row in enumerate(d):
        for j, entry in enumerate(row):
            if i != j:
                assert entry == 0
    for prev, cur in zip(diag, diag[1:]):
        if prev == 0:
            assert cur == 0
        else:
            assert prev >= 0 and cur % prev == 0


def test_c10_certificates_resubstitute():
    with criterion(10, "exact certificates"):
        rng = fresh_rng(salt=64)
        mix = [gen_d1(4), gen_d2(5), gen_d3(5), cross_model(), zero_model(1, 3)]
        mix += [
            random_spanning_model(rng, min_primes=3, max_primes=6)
            for _ in range(5)
        ]
        for m in mix:
            zero = tuple([F(0)] * m.ambient_rank)
            for s in enumerate_v(m):
                vecs = [m.vector(p) for p in sorted(s)]
                found, coeffs = strict_zero_combination(vecs)
                assert found
                assert all(c >= 1 for c in coeffs)
                total = [F(0)] * m.ambient_rank
                for c, v in zip(coeffs, vecs):
                    total = [t + c * x for t, x in zip(total, v)]
                assert tuple(total) == zero

        for _ in range(40):
            dim = rng.randrange(1, 4)
            gens = [
                tuple(F(rng.randint(-4, 4)) for _ in range(dim))
                for _ in range(rng.randrange(1, 5))
            ]
            picked = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in gens]
            target = tuple(
                sum(c * g[i] for c, g in zip(picked, gens))
                for i in range(dim)
            )
            inside, coeffs = cone_member(target, gens)
            assert inside
            assert all(c >= 0 for c in coeffs)
            rebuilt = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens))
                for i in range(dim)
            )
            assert rebuilt == target

        for _ in range(30):
            nvars = rng.randrange(1, 4)
            nrows = rng.randrange(1, 4)
            bounds = [
                None if rng.random() < 0.4 else F(rng.randint(-2, 2))
                for _ in range(nvars)
            ]
            point = [
                F(rng.randint(-3, 3))
                if b is None
                else b + F(rng.randint(0, 4))
                for b in bounds
            ]
            rows = [
                [F(rng.randint(-3, 3)) for _ in range(nvars)]
                for _ in range(nrows)
            ]
            rhs = [
                sum(c * x for c, x in zip(row, point)) for row in rows
            ]
            feasible, witness = lp_feasible(rows, rhs, bounds)
            assert feasible
            for row, target in zip(rows, rhs):
                assert sum(c * x for c, x in zip(row, witness)) == target
            for x, b in zip(witness, bounds):
                assert b is None or x >= b

        for maker in (d1_relations, d2_relations, d3_relations):
            for k in range(2, 9):
                _check_snf([list(row) for row in maker(k).relations])
        for _ in range(20):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            _check_snf(
                [
                    [rng.randint(-9, 9) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
