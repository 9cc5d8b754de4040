"""Exact rational linear algebra.

Everything here is exact: `fractions.Fraction` in and out, integers inside
the simplex, and no floats ever, since the cone decisions downstream sit
exactly on boundaries where rounding flips verdicts.  The pieces are a
phase-1 simplex behind nonnegative-combination (cone) membership, which
equality systems with lower bounds reduce to, and strictly positive zero
combinations; rank; and a Smith normal form that returns its unimodular
transforms.  The LP-free positive circuit test is fraction-free
Gauss-Jordan elimination on integer columns (Bareiss 1968), one pivot at a
time, `pivot_columns`, on a tableau kept as its rows' products with the
columns still to come; a walk over independent prefixes carries each
prefix's tableau down instead of eliminating each subset afresh.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index
from typing import Optional, Sequence

from .errors import DimensionError

Vector = tuple[Fraction, ...]


def vec(values: Sequence) -> Vector:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def vec_neg(v: Sequence[Fraction]) -> Vector:
    return tuple(-x for x in v)


def mat_vec(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


# --- feasibility core -------------------------------------------------------

def _scaled(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """A rational row as integers: (d * row, d) with d the lcm of the
    denominators."""
    d = lcm(*(q.denominator for q in row))
    return [q.numerator * (d // q.denominator) for q in row], d


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def integer_columns(vectors: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """The vectors as integer columns with the same kernels: each coordinate
    row is scaled by the lcm of its denominators, a positive row scaling."""
    vecs = [vec(v) for v in vectors]
    rows = [_scaled(row)[0] for row in zip(*vecs)]
    return list(zip(*rows)) if rows else [()] * len(vecs)


def pivot_columns(
    later: Sequence[Sequence[int]], column: Sequence[int], row: int, free: int,
    scale: int,
) -> tuple[list[list[int]], int]:
    """One fraction-free Gauss-Jordan pivot (Bareiss 1968) of an integer
    tableau kept as the products of its rows with the columns still to come.

    The tableau of linearly independent columns c_0, ..., c_(k-1) in Q^dim
    has dim rows: its first `free` = dim - k rows take every c_i to 0, and
    the last k take their own c_i to `scale` > 0 and the others to 0.  A
    tableau column is the rows' products with one input column, so an input
    column is a combination of the c_i iff its first `free` entries vanish,
    and then its coefficient on each c_i has the sign of that row's entry.

    Pivoting on entry `row` < free of `column`, which must be nonzero, adds
    `column` to the c_i: each later column costs two products per entry and
    one division by the old scale, exact because every entry is, up to
    sign, a minor of the input columns (Sylvester's identity).  The pivot
    row, negated if its entry is negative so that the scale stays positive,
    becomes the new inverse row, moved to slot free - 1 (the annihilator row
    there takes its slot), so the inverse rows run from the latest column
    back to c_0.  Returns the pivoted later columns and the new scale.
    """
    alpha = column[row]
    last = free - 1
    sign, divisor = (1, scale) if alpha > 0 else (-1, -scale)
    pivoted = []
    for entries in later:
        b = entries[row]
        new = [(alpha * a - x * b) // divisor for a, x in zip(entries, column)]
        new[row] = new[last]
        new[last] = sign * b
        pivoted.append(new)
    return pivoted, sign * alpha


def positive_circuit(columns: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The primitive, strictly positive kernel vector of the integer columns
    when their kernel is one-dimensional and spanned by a one-signed vector
    (the columns are then a positive circuit); None otherwise.

    A fold of `pivot_columns`, with no LP: the columns are a positive circuit
    iff all but the last are linearly independent and the last one is a
    combination of them with every coefficient strictly negative.
    """
    if not columns:
        return None
    table = [list(c) for c in columns]
    free, scale = len(table[0]), 1
    while len(table) > 1:
        column = table[0]
        row = next((r for r in range(free) if column[r]), None)
        if row is None:
            return None
        table, scale = pivot_columns(table[1:], column, row, free, scale)
        free -= 1
    entries = table[0]
    if any(entries[:free]) or max(entries[free:], default=-1) >= 0:
        return None
    # the inverse rows run from the latest prefix column back to the first
    kernel = [-x for x in reversed(entries[free:])] + [scale]
    g = gcd(*kernel)
    return tuple(x // g for x in kernel)


def _phase_one(
    n: int, equations: list[tuple[list[int], int]]
) -> Optional[list[Fraction]]:
    """Solve `sum_j z_j * a_ij = b_i (all i), z >= 0` by phase-1 simplex.

    Each equation is `_scaled(a_i0, ..., a_i(n-1), b_i)`.  Returns a
    coefficient list z, or None if the system is infeasible.  Bland's rule
    (smallest eligible index for both the entering column and the leaving
    basic variable) makes the pivot sequence finite.

    The tableau is the rational one, b last, with row i stored as the
    primitive integer vector on the same ray; its artificial entry starts as
    the row's scale s_i.  Pivots, ratios and reduced-cost signs are those of
    the rational tableau, so the pivot sequence and the witness are too.
    """
    m = len(equations)
    total = n + m
    tableau: list[list[int]] = []
    for i, (ints, d) in enumerate(equations):
        sign = -1 if ints[n] < 0 else 1
        row = [sign * a for a in ints[:n]]
        row.extend(d if k == i else 0 for k in range(m))
        row.append(sign * ints[n])
        tableau.append(_primitive(row))
    basis = list(range(n, total))
    # reduced costs against the all-artificial start basis, times the lcm of
    # the scales: each row weighs in at lcm / s_i, as the rational row does
    scales = [tableau[i][n + i] for i in range(m)]
    common = lcm(*scales)
    cost = [0] * n + [common] * m
    for s, row in zip(scales, tableau):
        w = common // s
        cost = [c - w * a for c, a in zip(cost, row)]

    while True:
        enter = next((j for j, c in enumerate(cost) if c < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            t = row[enter]
            if t > 0:
                if leave is None:
                    leave, lt, lb = i, t, row[-1]
                    continue
                lhs, rhs = row[-1] * lt, lb * t  # b_i / t_i vs b_l / t_l
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, lt, lb = i, t, row[-1]
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        prow = tableau[leave]
        piv = prow[enter]
        for i, row in enumerate(tableau):
            f = row[enter]
            if i != leave and f != 0:
                tableau[i] = _primitive([piv * a - f * p for a, p in zip(row, prow)])
        f = cost[enter]
        cost = _primitive([piv * c - f * p for c, p in zip(cost, prow)])
        basis[leave] = enter

    if any(row[-1] for row, j in zip(tableau, basis) if j >= n):
        return None
    z = [Fraction(0)] * n
    for row, j in zip(tableau, basis):
        if j < n:
            z[j] = Fraction(row[-1], row[j])
    return z


def lp_feasible(
    rows: Sequence[Sequence],
    rhs: Sequence,
    lower_bounds: Sequence[Optional[Fraction]],
) -> tuple[bool, Optional[Vector]]:
    """Decide feasibility of `A x = b` with `x_j >= lower_bounds[j]`.

    A bound of None leaves the variable free.  Returns (True, witness) with
    an exact rational witness, or (False, None).
    """
    a = [vec(row) for row in rows]
    b = vec(rhs)
    n = len(lower_bounds)
    if len(b) != len(a):
        raise DimensionError("right-hand side length differs from row count")
    for row in a:
        if len(row) != n:
            raise DimensionError("row width differs from bound count")
    bounds = [None if lb is None else Fraction(lb) for lb in lower_bounds]

    shift = [lb if lb is not None else Fraction(0) for lb in bounds]
    layout: list[tuple[int, int]] = []  # (variable, sign)
    for j in range(n):
        layout.append((j, 1))
        if bounds[j] is None:
            layout.append((j, -1))
    # x = shift + signed z with z >= 0: b - A shift in the signed columns' cone
    ok, z = cone_member(
        [bi - sum((aj * sj for aj, sj in zip(row, shift)), Fraction(0))
         for row, bi in zip(a, b)],
        [[sign * row[j] for row in a] for j, sign in layout],
    )
    if not ok:
        return False, None
    x = list(shift)
    for zj, (j, sign) in zip(z, layout):
        x[j] += sign * zj
    return True, tuple(x)


def cone_member(v: Sequence, generators: Sequence[Sequence]) -> tuple[bool, Optional[Vector]]:
    """Is v a nonnegative rational combination of the generators?

    Returns (True, coefficients) or (False, None).  The empty generator set
    yields only the zero vector.
    """
    target = vec(v)
    gens = [vec(g) for g in generators]
    for g in gens:
        if len(g) != len(target):
            raise DimensionError("generator dimension differs from target")
    z = _phase_one(len(gens), [_scaled(row) for row in zip(*gens, target)])
    if z is None:
        return False, None
    return True, tuple(z)


def strict_zero_combination(generators: Sequence[Sequence]) -> tuple[bool, Optional[Vector]]:
    """Find lambda with every lambda_i >= 1 and sum lambda_i g_i = 0.

    Any strictly positive rational combination of the g_i reaching zero can be
    scaled so each coefficient is at least 1, so this is the right decision
    form for "zero lies in the strict positive hull".
    """
    gens = [vec(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    dim = len(gens[0])
    for g in gens:
        if len(g) != dim:
            raise DimensionError("generators have mixed dimensions")
    # substitute lambda = 1 + mu, mu >= 0: the target is -sum g_i
    equations = []
    for row in zip(*gens):
        ints, d = _scaled(row)
        ints.append(-sum(ints))
        equations.append((ints, d))
    z = _phase_one(len(gens), equations)
    if z is None:
        return False, None
    return True, tuple(Fraction(1) + zj for zj in z)


# --- rank and determinants --------------------------------------------------

def _echelon(rows: list[list[Fraction]]) -> tuple[list[Fraction], int]:
    """Forward elimination of rows, in place: the pivots it meets, one per
    independent row, and the number of row swaps it made."""
    pivots: list[Fraction] = []
    swaps = 0
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if at is None:
            continue
        if at != r:
            rows[r], rows[at] = rows[at], rows[r]
            swaps += 1
        prow = rows[r]
        pv = prow[col]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * p for a, p in zip(rows[i], prow)]
        pivots.append(pv)
    return pivots, swaps


def linear_rank(vectors: Sequence[Sequence]) -> int:
    """Dimension of the rational span of the given vectors."""
    vecs = [list(vec(v)) for v in vectors]
    if any(len(v) != len(vecs[0]) for v in vecs):
        raise DimensionError("vectors have mixed dimensions")
    return len(_echelon(vecs)[0])


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    a = [list(vec(row)) for row in rows]
    if any(len(row) != len(a) for row in a):
        raise DimensionError("determinant needs a square matrix")
    pivots, swaps = _echelon(a)
    if len(pivots) < len(a):
        return Fraction(0)
    return prod(pivots, start=Fraction((-1) ** swaps))


# --- Smith normal form ------------------------------------------------------

def _add_row(rows: list[list[int]], dst: int, src: int, q: int) -> None:
    rows[dst] = [x + q * y for x, y in zip(rows[dst], rows[src])]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: returns (U, D, V) with U*M*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d1 | d2 | ... along the diagonal.

    One pivot rule: each round moves the least nonzero entry of the trailing
    block to the pivot and clears the pivot's row and column by floor
    division.  A remainder, or an entry of the block past the pivot that the
    pivot does not divide (its row is first added to the pivot's), leaves a
    smaller least entry for a later round, so the rounds end.  V is kept
    transposed, so its column operations are row operations.
    """
    m = len(matrix)
    k = len(matrix[0]) if m else 0
    a = [list(map(index, row)) for row in matrix]
    for row in a:
        if len(row) != k:
            raise DimensionError("matrix rows have mixed widths")
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    vt = [[int(i == j) for j in range(k)] for i in range(k)]
    t = 0
    while block := [
        (abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, k) if a[i][j]
    ]:
        _, i, j = min(block)
        a[t], a[i] = a[i], a[t]
        u[t], u[i] = u[i], u[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        vt[t], vt[j] = vt[j], vt[t]
        p = a[t][t]
        for i in range(t + 1, m):
            q = -(a[i][t] // p)
            _add_row(a, i, t, q)
            _add_row(u, i, t, q)
        for j in range(t + 1, k):
            q = -(a[t][j] // p)
            for row in a:
                row[j] += q * row[t]
            _add_row(vt, j, t, q)
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1 :]):
            continue
        bad = next(
            (i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1 :])), None
        )
        if bad is not None:
            _add_row(a, t, bad, 1)
            _add_row(u, t, bad, 1)
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, a, [list(col) for col in zip(*vt)]


# --- serialization ----------------------------------------------------------

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' with b > 0."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"invalid rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def parse_vector(items: Sequence[str]) -> Vector:
    """The entries as rationals; a bad entry j is located as `[j]: ...`."""
    parsed = []
    for j, item in enumerate(items):
        try:
            parsed.append(parse_rational(item))
        except ValueError as exc:
            raise ValueError(f"[{j}]: {exc}") from None
    return tuple(parsed)


def format_vector(v: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) for x in v]
