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


@pytest.mark.parametrize(
    "n, d, sizes",
    [
        # members by size: complements of the facets, ..., of the vertices
        # and of the empty face, from the cyclic polytope's h-vector
        (8, 4, [(4, 20), (5, 40), (6, 28), (7, 8), (8, 1)]),
        (12, 4, [(8, 54), (9, 108), (10, 66), (11, 12), (12, 1)]),
        (12, 6, [(6, 112), (7, 336), (8, 390), (9, 220), (10, 66), (11, 12), (12, 1)]),
    ],
    ids=["8-4", "12-4", "12-6"],
)
def test_cyclic(n, d, sizes):
    ts = range(n)
    ids = [f"t{t}" for t in ts]
    m = gale_dual(ids, [tuple(t**k for k in range(1, d + 1)) for t in ts])
    # Gale's evenness condition: a d-set is a facet iff an even number of
    # its points lies between any two points off it
    facets = {
        frozenset(ids[t] for t in face)
        for face in combinations(ts, d)
        if all(
            sum(i < t < j for t in face) % 2 == 0
            for i, j in combinations(sorted(set(ts) - set(face)), 2)
        )
    }
    # the polytope is simplicial, so its faces are the subsets of its facets
    faces = {
        frozenset(face)
        for facet in facets
        for k in range(d + 1)
        for face in combinations(facet, k)
    }
    v = members(m)
    assert v == {frozenset(ids) - face for face in faces}
    assert sorted(Counter(map(len, v)).items()) == sizes
    # C(n, d) is d/2-neighbourly: every set of at most d/2 points is a face
    assert {s for s in v if len(s) >= n - d // 2} == {
        frozenset(s) for k in range(n - d // 2, n + 1) for s in combinations(ids, k)
    }
    assert minimal(v) == {frozenset(ids) - face for face in facets}
    assert recover_rank(m) == validate(m).linear_rank == n - d - 1
    if d == n // 2:
        # equal rank and prime count, yet no bijection carries V onto V
        assert recover_rank(cross(d)) == n - d - 1
        assert find_iso(cross(d), m) is None


def simplex(a):
    """The a-simplex's vertices in R^a: the origin and the unit vectors."""
    return [tuple(int(i == j + 1) for j in range(a)) for i in range(a + 1)]


def simplex_faces(a):
    """The a-simplex's nonempty faces: every nonempty set of its vertices."""
    return [set(s) for k in range(1, a + 2) for s in combinations(range(a + 1), k)]


def product_model(points_a, faces_a, points_b, faces_b):
    """The Gale dual of the product of two polytopes, each given by its
    vertices and its nonempty faces, and the complements of the product's
    proper faces: the empty face and F x G for nonempty faces F and G, the
    whole excepted.  Vertex (i, j) is the prime v<i><j>."""
    grid = list(product(range(len(points_a)), range(len(points_b))))
    ids = [f"v{i}{j}" for i, j in grid]
    m = gale_dual(ids, [points_a[i] + points_b[j] for i, j in grid])
    faces = {frozenset()} | {
        frozenset(f"v{i}{j}" for i in f for j in g) for f in faces_a for g in faces_b
    }
    return m, {frozenset(ids) - face for face in faces} - {frozenset()}


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 2), (1, 3), (1, 4), (2, 3), (1, 5)])
def test_product_of_simplices(a, b):
    m, complements = product_model(simplex(a), simplex_faces(a), simplex(b), simplex_faces(b))
    v = members(m)
    assert v == complements
    assert len(v) == (2 ** (a + 1) - 1) * (2 ** (b + 1) - 1)
    # the facets drop one vertex of a factor, so their complements are the
    # rows and the columns of the vertex grid
    rows = {frozenset(f"v{i}{j}" for j in range(b + 1)) for i in range(a + 1)}
    columns = {frozenset(f"v{i}{j}" for i in range(a + 1)) for j in range(b + 1)}
    assert minimal(v) == rows | columns
    assert len(rows | columns) == a + b + 2
    report = validate(m)
    assert recover_rank(m) == report.linear_rank == a * b
    assert report.witness_rich
    if (a, b) == (1, 5):
        # both have 12 primes and rank 5, yet V differs
        assert recover_rank(cross(6)) == 5
        assert find_iso(cross(6), m) is None


@pytest.mark.parametrize("k", [5, 6])
def test_prism(k):
    # the k-gon's vertices lie on a parabola; its edges join neighbours and
    # the two ends
    polygon = [(t, t * t) for t in range(k)]
    edges = [{t, (t + 1) % k} for t in range(k)]
    polygon_faces = [{t} for t in range(k)] + edges + [set(range(k))]
    m, complements = product_model(polygon, polygon_faces, simplex(1), simplex_faces(1))
    v = members(m)
    assert v == complements
    assert len(v) == 3 * (2 * k + 1)
    # facets: the two k-gons, and each edge times the segment
    bases = {frozenset(f"v{t}{h}" for t in range(k)) for h in (0, 1)}
    sides = {frozenset(f"v{t}{h}" for t in range(k) if t not in e for h in (0, 1)) for e in edges}
    assert minimal(v) == bases | sides
    assert len(bases | sides) == k + 2
    assert recover_rank(m) == validate(m).linear_rank == 2 * k - 4
