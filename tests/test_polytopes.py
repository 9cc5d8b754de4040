"""Closed-form polytope oracles.

The Gale dual of a polytope's n homogenised vertices in R^d gives each
vertex a class: its column of a basis of the kernel of the matrix whose
columns are (vertex, 1).  A strictly positive combination of the classes on
S vanishes iff its coefficients are an affine function that is nonnegative
on the vertices and zero exactly off S.  So V is the set of complements of
the polytope's proper faces (the empty face included), its circuits are the
complements of the facets, and its rank is n - d - 1.  The answers below
are counted from face lattices known in advance; the Gale duals come from a
small exact elimination kept here, apart from the program's own.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from radrank import Model, enumerate_v, find_iso, recover_rank, validate


def rref(rows):
    """(reduced rows, pivot columns) of a matrix over Q, by Gauss-Jordan."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def gale_dual(ids, vertices):
    """The model giving ids[j] column j of a kernel basis of the matrix
    whose columns are (vertices[j], 1)."""
    n = len(vertices)
    reduced, pivots = rref([*map(list, zip(*vertices)), [1] * n])
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(c == f) for c in range(n)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return Model(len(basis), [(pid, [v[j] for v in basis]) for j, pid in enumerate(ids)])


def members(m):
    return set(enumerate_v(m))


def minimal(family):
    """The circuits: the members with no smaller member inside them."""
    return {s for s in family if not any(t < s for t in family)}


def cross_ids(d):
    return [f"{sign}{i}" for i in range(d) for sign in "+-"]


def cross(d):
    """The d-cross-polytope's Gale dual in closed form: +i and -i get e_i in
    Q^(d-1) for i < d - 1, and +(d-1) and -(d-1) get -(1, ..., 1)."""
    classes = [[int(i == j) for j in range(d - 1)] for i in range(d - 1)]
    classes.append([-1] * (d - 1))
    return Model(d - 1, list(zip(cross_ids(d), chain.from_iterable(zip(classes, classes)))))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_cross_polytope(d):
    m = cross(d)
    v = members(m)
    # a face takes at most one of +i and -i, so its complement meets each pair
    pairs = [(f"+{i}", f"-{i}") for i in range(d)]
    assert v == {
        frozenset(chain.from_iterable(pick))
        for pick in product(*([(p,), (q,), (p, q)] for p, q in pairs))
    }
    assert len(v) == 3**d
    circuits = minimal(v)
    assert len(circuits) == 2**d
    assert {len(c) for c in circuits} == {d}
    assert recover_rank(m) == validate(m).linear_rank == d - 1
    vertices = [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    dual = gale_dual(cross_ids(d), vertices)
    iso = find_iso(m, dual)
    assert iso is not None
    assert {frozenset(map(iso.__getitem__, s)) for s in v} == members(dual)


def test_cube():
    vertices = list(product((0, 1), repeat=3))
    ids = ["v" + "".join(map(str, x)) for x in vertices]
    m = gale_dual(ids, vertices)
    # a nonempty proper face fixes some coordinates and frees the rest (None)
    faces = [frozenset()] + [
        frozenset(
            pid for pid, x in zip(ids, vertices)
            if all(f in (None, c) for f, c in zip(fixed, x))
        )
        for fixed in product((0, 1, None), repeat=3)
        if fixed != (None, None, None)
    ]
    v = members(m)
    assert v == {frozenset(ids) - face for face in faces}
    assert len(v) == 27
    circuits = minimal(v)
    assert circuits == {frozenset(ids) - face for face in faces if len(face) == 4}
    assert len(circuits) == 6
    assert recover_rank(m) == validate(m).linear_rank == 4


def test_cyclic_8_4():
    ts = range(8)
    ids = [f"t{t}" for t in ts]
    m = gale_dual(ids, [(t, t**2, t**3, t**4) for t in ts])
    # Gale's evenness condition: a 4-set is a facet iff an even number of
    # its points lies between any two points off it
    facets = {
        frozenset(ids[t] for t in face)
        for face in combinations(ts, 4)
        if all(
            sum(i < t < j for t in face) % 2 == 0
            for i, j in combinations(sorted(set(ts) - set(face)), 2)
        )
    }
    v = members(m)
    # complements of the empty face, the 8 vertices, the 28 edges (every
    # pair is one: C(8, 4) is neighbourly), the 40 2-faces and the 20 facets
    assert sorted(Counter(map(len, v)).items()) == [(4, 20), (5, 40), (6, 28), (7, 8), (8, 1)]
    assert len(v) == 97
    assert {s for s in v if len(s) >= 6} == {
        frozenset(s) for k in (6, 7, 8) for s in combinations(ids, k)
    }
    assert minimal(v) == {frozenset(ids) - face for face in facets}
    assert len(facets) == 20
    assert recover_rank(m) == validate(m).linear_rank == 3
    # equal rank and prime count, yet no bijection carries V onto V
    assert recover_rank(cross(4)) == 3
    assert find_iso(cross(4), m) is None
