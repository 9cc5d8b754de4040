"""Exact-arithmetic kernels: frozen examples plus oracle cross-checks."""

from fractions import Fraction
from math import gcd

import pytest

from oracles import (
    circuit_by_rref,
    circuit_step,
    echelon_rank_transposed,
    elimination_state,
    fm_cone_member,
    fm_strict_zero,
    frac_cone_member,
    frac_lp_feasible,
    frac_strict_zero,
)
from modelgen import fresh_rng
from radrank import (
    DimensionError,
    cone_member,
    determinant,
    format_rational,
    format_vector,
    integer_columns,
    linear_rank,
    lp_feasible,
    parse_rational,
    parse_vector,
    positive_circuit,
    smith_normal_form,
    strict_zero_combination,
)
from radrank.ratlin import pivot_columns

F = Fraction


def _resubstitute(rows, x):
    return tuple(sum(F(a) * xi for a, xi in zip(row, x)) for row in rows)


class TestLpFeasible:
    def test_two_positive_vars_cannot_cancel(self):
        ok, witness = lp_feasible([[1, 1]], [0], [F(1), F(1)])
        assert not ok and witness is None

    def test_symmetric_difference(self):
        ok, witness = lp_feasible([[1, -1]], [0], [F(1), F(1)])
        assert ok
        assert witness == (F(1), F(1))

    def test_weighted_difference(self):
        ok, witness = lp_feasible([[1, -2]], [0], [F(1), F(1)])
        assert ok
        assert witness == (F(2), F(1))

    def test_free_variable(self):
        ok, witness = lp_feasible([[1, 1]], [5], [None, None])
        assert ok
        assert sum(witness) == F(5)

    def test_mixed_bounds_resubstitute(self):
        rows = [[2, -1, 3], [0, 1, 1]]
        ok, witness = lp_feasible(rows, [4, 2], [F(0), None, F(1, 2)])
        assert ok
        assert _resubstitute(rows, witness) == (F(4), F(2))
        assert witness[0] >= 0 and witness[2] >= F(1, 2)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            lp_feasible([[1, 2]], [0, 0], [F(0), F(0)])
        with pytest.raises(DimensionError):
            lp_feasible([[1, 2, 3]], [0], [F(0), F(0)])


class TestConeMember:
    def test_zero_in_empty_cone(self):
        ok, coeffs = cone_member((0,), [])
        assert ok and coeffs == ()

    def test_nonzero_not_in_empty_cone(self):
        ok, coeffs = cone_member((1,), [])
        assert not ok and coeffs is None

    def test_quadrant_diagonal(self):
        ok, coeffs = cone_member((1, 1), [(1, 0), (0, 1)])
        assert ok and coeffs == (F(1), F(1))

    def test_quadrant_excludes_negative_axis(self):
        ok, coeffs = cone_member((-1, 0), [(1, 0), (0, 1)])
        assert not ok and coeffs is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cone_member((1, 0), [(1,)])

    def test_certificates_resubstitute(self):
        rng = fresh_rng(salt=10)
        for _ in range(120):
            dim = rng.randrange(1, 4)
            count = rng.randrange(0, 6)
            gens = [
                tuple(F(rng.randint(-4, 4)) for _ in range(dim))
                for _ in range(count)
            ]
            v = tuple(F(rng.randint(-4, 4)) for _ in range(dim))
            ok, coeffs = cone_member(v, gens)
            if ok:
                assert all(c >= 0 for c in coeffs)
                got = tuple(
                    sum((c * g[d] for c, g in zip(coeffs, gens)), F(0))
                    for d in range(dim)
                )
                assert got == v
            # elimination-based second opinion on every verdict
            assert ok == fm_cone_member(v, gens)


class TestStrictZeroCombination:
    def test_opposite_vectors(self):
        ok, coeffs = strict_zero_combination([(1,), (-1,)])
        assert ok and coeffs == (F(1), F(1))

    def test_same_sign_fails(self):
        ok, coeffs = strict_zero_combination([(1,), (2,)])
        assert not ok and coeffs is None

    def test_weighted_pair(self):
        ok, coeffs = strict_zero_combination([(1,), (-2,)])
        assert ok and coeffs == (F(2), F(1))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            strict_zero_combination([])

    def test_matches_elimination_oracle(self):
        rng = fresh_rng(salt=11)
        for _ in range(120):
            dim = rng.randrange(1, 4)
            count = rng.randrange(1, 6)
            gens = [
                tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
                for _ in range(count)
            ]
            ok, coeffs = strict_zero_combination(gens)
            assert ok == fm_strict_zero(gens)
            if ok:
                assert all(c >= 1 for c in coeffs)
                total = tuple(
                    sum((c * g[d] for c, g in zip(coeffs, gens)), F(0))
                    for d in range(dim)
                )
                assert total == tuple(F(0) for _ in range(dim))


class TestIntegerTableauMatchesRationalOracle:
    """The integer phase-1 tableau must make the rational tableau's pivots:
    same verdict and the same witness, Fraction for Fraction."""

    @staticmethod
    def _entry(rng, small=False):
        k = rng.random()
        if small or k < 0.45:
            return F(rng.randint(-2, 2))  # zeros and ratio-test ties
        if k < 0.8:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        return F(rng.choice((-1, 1)), 2 ** rng.randint(0, 20))  # d2-style

    def _vector(self, rng, dim, zero_rows, small):
        return tuple(
            F(0) if d in zero_rows else self._entry(rng, small) for d in range(dim)
        )

    @staticmethod
    def _same(got, want):
        assert got == want
        if got[1] is not None:
            assert all(type(x) is F for x in got[1])

    def test_fixed_edge_cases(self):
        # 0 rows: n zero coefficients, not an empty tuple
        self._same(cone_member((), [(), ()]), (True, (F(0), F(0))))
        self._same(strict_zero_combination([(), ()]), (True, (F(1), F(1))))
        self._same(lp_feasible([], [], [F(2), None]), (True, (F(2), F(0))))
        # 0 generators
        self._same(cone_member((0,), []), frac_cone_member((0,), []))
        self._same(cone_member((-1, 0), []), frac_cone_member((-1, 0), []))
        self._same(lp_feasible([[]], [0], []), frac_lp_feasible([[]], [0], []))
        self._same(lp_feasible([[]], [-3], []), frac_lp_feasible([[]], [-3], []))
        # one vertex reached along tied ratios
        gens = [(1, 0), (0, 1), (1, 1), (2, 2)]
        self._same(cone_member((2, 2), gens), frac_cone_member((2, 2), gens))
        # a tie that only the basis-index rule breaks: taking the first tied
        # row instead ends at (0, 1/2, 0, 1)
        gens = [(-2, -1, 1), (0, 0, 2), (1, 0, 1), (0, 2, -1)]
        want = (True, (F(2, 5), F(0), F(4, 5), F(6, 5)))
        assert frac_cone_member((0, 2, 0), gens) == want
        self._same(cone_member((0, 2, 0), gens), want)

    def test_random_systems_through_every_entry_point(self):
        rng = fresh_rng(salt=15)
        ties = []
        counts = {"cone": 0, "strict": 0, "lp": 0}
        for trial in range(12_000):
            dim = rng.randrange(0, 5)
            count = rng.randrange(0, 7)
            zero_rows = {d for d in range(dim) if rng.random() < 0.1}
            small = rng.random() < 0.5
            gens = [self._vector(rng, dim, zero_rows, small) for _ in range(count)]
            target = self._vector(
                rng, dim, zero_rows if rng.random() < 0.5 else (), small
            )
            kind = trial % 3
            if kind == 0:
                self._same(
                    cone_member(target, gens), frac_cone_member(target, gens, ties)
                )
                counts["cone"] += 1
            elif kind == 1 and gens:
                self._same(strict_zero_combination(gens), frac_strict_zero(gens, ties))
                counts["strict"] += 1
            elif kind == 2:
                # the generators are the columns of the equation matrix
                rows = [[g[d] for g in gens] for d in range(dim)]
                bounds = [
                    rng.choice((None, F(0), F(1), self._entry(rng))) for _ in gens
                ]
                self._same(
                    lp_feasible(rows, target, bounds),
                    frac_lp_feasible(rows, target, bounds, ties),
                )
                counts["lp"] += 1
        assert sum(counts.values()) >= 10_000 and min(counts.values()) >= 3_000
        assert len(ties) >= 500


class TestPositiveCircuit:
    """The LP-free circuit test against a Fraction RREF nullspace."""

    def test_fixed_cases(self):
        def circuit(vectors):
            return positive_circuit(integer_columns(vectors))

        assert circuit([(1,), (-1,)]) == (1, 1)
        assert circuit([(1,), (-2,)]) == (2, 1)
        assert circuit([(F(1, 3),), (F(-1, 2),)]) == (3, 2)
        assert circuit([(1,), (2,)]) is None  # one-signed kernel fails
        assert circuit([(1, 0), (0, 1)]) is None  # nullity 0
        assert circuit([(1, 0), (0, 1), (-1, -1)]) == (1, 1, 1)
        assert circuit([(1, 0), (0, 1), (-1, 0)]) is None  # zero kernel entry
        assert circuit([(0, 0)]) == (1,)  # a zero vector vanishes alone
        assert circuit([(0, 0), (1, 0)]) is None
        assert circuit([(1,), (-1,), (1,)]) is None  # nullity 2
        assert circuit([()]) == (1,)  # dimension 0
        assert circuit([(), ()]) is None
        assert integer_columns([(F(1, 2), 3), (F(-1, 3), F(1, 4))]) == [(3, 12), (-2, 1)]

    @staticmethod
    def _entry(rng):
        k = rng.random()
        if k < 0.5:
            return F(rng.randint(-2, 2))
        if k < 0.8:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        return F(rng.choice((-1, 1)), 2 ** rng.randint(0, 20))  # d2-style

    def _column_set(self, rng, dim, count):
        vecs = []
        for _ in range(count):
            k = rng.random()
            if vecs and k < 0.1:
                vecs.append(rng.choice(vecs))  # repeated column
            elif vecs and k < 0.2:
                vecs.append(tuple(-x for x in rng.choice(vecs)))  # v / -v
            elif k < 0.25:
                vecs.append(tuple(F(0) for _ in range(dim)))  # zero column
            else:
                vecs.append(tuple(self._entry(rng) for _ in range(dim)))
        if count >= 2 and rng.random() < 0.4:
            # close with a strictly positive combination of the others
            weights = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in vecs[1:]]
            vecs[0] = tuple(
                -sum((w * v[d] for w, v in zip(weights, vecs[1:])), F(0))
                for d in range(dim)
            )
        rng.shuffle(vecs)
        return vecs

    def test_matches_rref_nullspace(self):
        rng = fresh_rng(salt=16)
        found = 0
        for _ in range(20_000):
            dim = rng.randrange(0, 5)
            vecs = self._column_set(rng, dim, rng.randrange(1, 6))
            # the sweeps scale the whole input once and pass a subset
            others = [tuple(self._entry(rng) for _ in range(dim)) for _ in range(2)]
            cols = integer_columns(vecs + others)[: len(vecs)]
            got = positive_circuit(cols)
            want = circuit_by_rref(vecs)
            assert (got is None) == (want is None), vecs
            if got is None:
                continue
            found += 1
            assert all(type(x) is int and x > 0 for x in got)
            assert gcd(*got) == 1
            assert all(g * want[0] == w * got[0] for g, w in zip(got, want))
            assert all(
                sum((g * v[d] for g, v in zip(got, vecs)), F(0)) == 0
                for d in range(dim)
            )
        assert found >= 3_000


class TestCircuitStep:
    """The oracle's elimination step, which keeps the rows, against the
    transposed echelon rank and the Fraction RREF nullspace, on every
    independent prefix of seeded integer columns and every next column."""

    @staticmethod
    def _columns(rng, dim, count):
        cols = []
        for _ in range(count):
            k = rng.random()
            if cols and k < 0.1:
                cols.append(rng.choice(cols))  # repeated column
            elif cols and k < 0.2:
                cols.append(tuple(-x for x in rng.choice(cols)))  # v / -v
            elif k < 0.3:
                cols.append((0,) * dim)  # zero column
            elif cols and k < 0.55:
                # a combination of earlier columns, often strictly negative
                picks = rng.sample(cols, rng.randint(1, len(cols)))
                weights = [rng.randint(-5, -1) if rng.random() < 0.7
                           else rng.randint(-3, 3) for _ in picks]
                cols.append(tuple(
                    sum(w * c[d] for w, c in zip(weights, picks)) for d in range(dim)
                ))
            else:
                cols.append(tuple(
                    rng.choice((-1, 1)) * 2 ** rng.randint(0, 20)
                    if rng.random() < 0.2 else rng.randint(-3, 3)
                    for _ in range(dim)
                ))
        return cols

    @staticmethod
    def _check_state(state, cols, dim):
        def dot(row, col):
            return sum(a * b for a, b in zip(row, col))

        assert state.scale != 0
        assert len(state.inverse) == len(cols)
        assert len(state.annihilator) == dim - len(cols)
        for i, row in enumerate(state.inverse):
            assert [dot(row, c) for c in cols] == [
                state.scale * (i == j) for j in range(len(cols))
            ]
        assert all(dot(row, c) == 0 for row in state.annihilator for c in cols)
        # the rows together stay independent, so nothing outside the span
        # of the columns is missed
        assert echelon_rank_transposed(state.inverse + state.annihilator) == dim

    def test_matches_rank_and_rref_nullspace(self):
        rng = fresh_rng(salt=35)
        counts = {"extended": 0, "kernel": 0, "neither": 0}
        for _ in range(1_500):
            dim = rng.randrange(0, 5)
            cols = self._columns(rng, dim, rng.randrange(1, 7))
            state, prefix = elimination_state(dim), []
            while state is not None:
                rank = echelon_rank_transposed(prefix)
                assert rank == len(prefix) == len(state.inverse)
                for col in cols:
                    grown, kernel = circuit_step(state, col)
                    # with no extension asked for, the same kernel, no pivot
                    assert circuit_step(state, col, grow=False) == (None, kernel)
                    extends = echelon_rank_transposed(prefix + [col]) > rank
                    assert (grown is not None) == extends
                    if extends:
                        assert kernel is None
                        self._check_state(grown, prefix + [col], dim)
                        counts["extended"] += 1
                        continue
                    want = circuit_by_rref(prefix + [col])
                    assert (kernel is None) == (want is None), (prefix, col)
                    if kernel is None:
                        counts["neither"] += 1
                        continue
                    counts["kernel"] += 1
                    assert all(type(x) is int and x > 0 for x in kernel)
                    assert gcd(*kernel) == 1
                    assert all(k * want[0] == w * kernel[0] for k, w in zip(kernel, want))
                if len(prefix) == len(cols):
                    break
                state, _ = circuit_step(state, cols[len(prefix)])
                prefix.append(cols[len(prefix)])
        assert min(counts.values()) >= 2_000, counts


class TestPivotColumns:
    """The carried tableau against the oracle's elimination, which keeps
    the rows: after each independent prefix is pivoted in, a later column's
    first `free` entries vanish iff the oracle's annihilator rows take it
    to 0, and then its inverse entries over the scale are its coefficients
    on the prefix columns."""

    def test_matches_the_elimination_that_keeps_the_rows(self):
        rng = fresh_rng(salt=39)
        counts = {"dependent": 0, "independent": 0}

        def dot(row, col):
            return sum(a * b for a, b in zip(row, col))

        for _ in range(1_500):
            dim = rng.randrange(0, 5)
            cols = TestCircuitStep._columns(rng, dim, rng.randrange(1, 8))
            table, free, scale = [list(c) for c in cols], dim, 1
            state, k = elimination_state(dim), 0
            while table:
                # the tableau holds the columns after the first k
                assert scale > 0 and len(table) == len(cols) - k
                for col, entries in zip(cols[k:], table):
                    assert len(entries) == dim
                    dependent = not any(entries[:free])
                    assert dependent == (not any(dot(r, col) for r in state.annihilator))
                    if not dependent:
                        counts["independent"] += 1
                        continue
                    counts["dependent"] += 1
                    # the inverse rows run from the latest column back
                    assert [F(x, scale) for x in reversed(entries[free:])] == [
                        F(dot(r, col), state.scale) for r in state.inverse
                    ]
                column = table[0]
                row = next((r for r in range(free) if column[r]), None)
                if row is None:
                    break
                table, scale = pivot_columns(table[1:], column, row, free, scale)
                state, _ = circuit_step(state, cols[k])
                free, k = free - 1, k + 1
        assert min(counts.values()) >= 3_000, counts


class TestLinearRank:
    def test_collinear(self):
        assert linear_rank([(1,), (-1,), (1,)]) == 1

    def test_plane(self):
        assert linear_rank([(1, 0), (0, 1), (-1, -1)]) == 2

    def test_empty(self):
        assert linear_rank([]) == 0

    def test_agrees_with_transposed_echelon(self):
        rng = fresh_rng(salt=12)
        for _ in range(150):
            dim = rng.randrange(1, 5)
            count = rng.randrange(1, 6)
            vecs = [
                tuple(F(rng.randint(-5, 5)) for _ in range(dim))
                for _ in range(count)
            ]
            assert linear_rank(vecs) == echelon_rank_transposed(vecs)


def test_determinant_basics():
    assert determinant([[2]]) == 2
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0
    with pytest.raises(DimensionError):
        determinant([[1, 2]])


class TestSmithNormalForm:
    def _check_factorization(self, m):
        u, d, v = smith_normal_form(m)
        rows, cols = len(m), len(m[0]) if m else 0
        product = [
            [
                sum(u[i][a] * m[a][b] * v[b][j] for a in range(rows) for b in range(cols))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        assert product == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            assert diag[i] >= 0
            for j in range(i):
                assert d[i][j] == 0 and d[j][i] == 0
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        return diag

    def test_single_entry(self):
        diag = self._check_factorization([[2]])
        assert diag == [2]

    def test_rank_one_two_by_two(self):
        diag = self._check_factorization([[1, 1], [0, 0]])
        assert diag == [1, 0]

    def test_chain_relations(self):
        diag = self._check_factorization([[1, 2, 0], [0, 1, 2]])
        assert diag == [1, 1]

    def test_random_battery(self):
        rng = fresh_rng(salt=13)
        for _ in range(60):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            self._check_factorization(m)


class TestSerialization:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3/6") == F(-1, 2)

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "1.5", "a", "1/-2", " 1", None):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_format_reduces(self):
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(-1, 2)) == "-1/2"

    def test_vector_round_trip(self):
        rng = fresh_rng(salt=14)
        for _ in range(50):
            v = tuple(
                F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3)
            )
            assert parse_vector(format_vector(v)) == v
