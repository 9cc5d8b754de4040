"""Positive cones over Q^n: spanning tests, positive bases, weak Reay partitions.

A finite set S positively spans its linear span iff -(sum of S) lies in the
nonnegative hull of S, iff some strictly positive combination of S vanishes
(Gordan's alternative); the per-generator form is kept only as a test oracle.
The sets that positively span their span form a union-closed family, and each
member is a union of positive circuits.  A circuit's prefix is linearly
independent, so `principal_table` finds the circuits with no LP and no rank
pre-pass: each independent prefix carries one integer tableau over the later
generators, and deciding a (prefix, larger index) pair reads one column of
it.  It then flags all 2^n subsets closed or not by a subset-union pass done
bit-sliced: one 2^n-bit int per generator, n^2 big-int operations in all.
`enumerate_v` and the weak Reay chain both read the flags.
Partitions are represented by their chains of prefix unions.  The closed sets
are graded, so the maximum-cardinality search walks up least covers, each
step finding them among the closed sets above the chain's top with the same
bit-sliced passes on one 2^n-bit int; its 2^n predicate calls cap the
practical size at a dozen generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import DimensionError, PreconditionError, check_budget
from .ratlin import (
    Vector, _scaled, cone_member, integer_columns, linear_rank, pivot_columns, vec,
)


@dataclass(frozen=True)
class GeneratorSet:
    """Finite labelled family of rational vectors.

    Labels are opaque unique strings; they let a multiset with repeated
    vectors stay representable.  Entries are kept sorted by label, so
    "ascending label order" is simply storage order.
    """

    labels: tuple[str, ...]
    vectors: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.vectors):
            raise ValueError("labels and vectors differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        dims = {len(v) for v in self.vectors}
        if len(dims) > 1:
            raise DimensionError("vectors have mixed dimensions")
        order = sorted(range(len(self.labels)), key=lambda i: self.labels[i])
        object.__setattr__(self, "labels", tuple(self.labels[i] for i in order))
        object.__setattr__(
            self, "vectors", tuple(vec(self.vectors[i]) for i in order)
        )

    @classmethod
    def from_vectors(
        cls, vectors: Sequence[Sequence], labels: Optional[Sequence[str]] = None
    ) -> "GeneratorSet":
        vecs = tuple(vectors)
        if labels is None:
            width = max(2, len(str(max(len(vecs) - 1, 0))))
            labels = [f"g{i:0{width}d}" for i in range(len(vecs))]
        return cls(tuple(labels), vecs)

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, keep: Iterable[str]) -> "GeneratorSet":
        wanted = set(keep)
        pairs = [(l, v) for l, v in zip(self.labels, self.vectors) if l in wanted]
        return GeneratorSet(tuple(l for l, _ in pairs), tuple(v for _, v in pairs))


Generators = Union[GeneratorSet, Sequence[Sequence]]


def _vectors(x: Generators) -> tuple[Vector, ...]:
    if isinstance(x, GeneratorSet):
        return x.vectors
    return tuple(vec(v) for v in x)


def positively_spans_its_span(x: Generators) -> bool:
    """True iff the nonnegative hull of x equals the linear span of x.

    One LP: is -(sum of x) in that hull?  Each coordinate of the sum is one
    integer sum over the row scaled to integers.  Empty x counts as spanning.
    """
    vecs = _vectors(x)
    target = [Fraction(-sum(ints), d) for ints, d in map(_scaled, zip(*vecs))]
    return not vecs or cone_member(target, vecs)[0]


def positively_spans_rank(vecs: Sequence[Vector], rank: int) -> bool:
    """Do vecs have linear rank `rank` and positively span their span?  For
    vectors in Q^rank: do they positively span Q^rank?"""
    return linear_rank(vecs) == rank and positively_spans_its_span(vecs)


def _check_dimension(vecs: Sequence[Vector], n: int) -> None:
    if any(len(v) != n for v in vecs):
        raise DimensionError("vector dimension differs from ambient dimension")


def prune(gens: GeneratorSet) -> GeneratorSet:
    """Drop each generator, in ascending label order, whose removal leaves a
    set that positively spans its span; on such a gens the result is a
    positive basis of its span, gens itself iff none is removable.  No
    removal lowers the rank, as a strictly positive combination of the kept
    set vanishes (Gordan's alternative): each is a combination of the rest."""
    keep = [True] * len(gens)
    for i in range(len(gens)):
        keep[i] = False
        keep[i] = not positively_spans_its_span(list(compress(gens.vectors, keep)))
    return gens.subset(compress(gens.labels, keep))


def is_positive_basis(x: Generators, n: int) -> bool:
    """Does x positively span Q^n with no generator removable?"""
    vecs = _vectors(x)
    _check_dimension(vecs, n)
    gens = x if isinstance(x, GeneratorSet) else GeneratorSet.from_vectors(vecs)
    return positively_spans_rank(vecs, n) and prune(gens) == gens


def extract_positive_basis(x: Generators, n: int) -> GeneratorSet:
    """Deterministically thin a positively spanning set down to a positive basis.

    Takes the shortest ascending-label prefix that positively spans Q^n (none
    does unless the whole set does), then prunes it in ascending label order.
    """
    gens = x if isinstance(x, GeneratorSet) else GeneratorSet.from_vectors(x)
    _check_dimension(gens.vectors, n)
    for k in range(len(gens) + 1):
        if positively_spans_rank(gens.vectors[:k], n):
            return prune(gens.subset(gens.labels[:k]))
    raise PreconditionError("input does not positively span the ambient space")


def principal_table(vecs: Sequence[Vector]) -> tuple[bytes, tuple[int, ...]]:
    """(closed, circuits) for the subsets of vecs, as int masks whose bit i
    stands for vecs[i].

    `circuits` are the positive circuits, the minimal subsets some strictly
    positive combination of which vanishes, in (size, sorted index) order.
    `closed[mask]` is 1 iff mask is empty or principal, else 0.  The
    principal subsets are the unions of circuits, so a mask is closed iff
    each of its indices lies in a circuit inside it.

    A circuit's prefix (all but its largest index) is linearly independent,
    so one breadth-first walk over the independent prefixes finds them all,
    deciding each (independent prefix, larger index) once and with no LP.
    Each prefix carries its integer tableau over the later columns
    (`pivot_columns`), so a decision reads a column's entries; a column
    independent of the prefix pivots a copy for the longer prefix, unless no
    later index could extend that one.  Independent prefixes have at most
    rank vectors, so that is at most sum_{k <= rank} C(n, k + 1) decisions.
    `closed` then comes from n slices of 2^n bits, one per index, by n^2
    big-int operations (`closed_flags`).
    """
    count = len(vecs)
    cols = integer_columns(vecs)
    free = len(cols[0]) if cols else 0
    circuits, level = _decide_tableaux(count, free, [(0, -1, list(map(list, cols)), 1)])
    while level and free > 1:
        free -= 1
        found, level = _decide_tableaux(count, free, level)
        circuits += found
    # prefixes that leave one annihilator row hand on signs-only children
    circuits += _decide_signs(count, level)
    return closed_flags(count, circuits), tuple(circuits)


def _decide_tableaux(
    count: int, free: int, level: list[tuple]
) -> tuple[list[int], list[tuple]]:
    """Decide every later column of each (mask, largest index, tableau,
    scale) prefix of one size, `free` being its annihilator rows.  Returns
    the circuits found, in order, and the next level: the longer prefixes'
    states, or, when free is 1, (mask, largest index, pivot column, later
    columns) for `_decide_signs`, since no column is independent of them."""
    found, longer = [], []
    for prefix, last, table, scale in level:
        for j, column in enumerate(table, last + 1):
            for row in range(free):
                if column[row]:
                    break
            else:
                # a combination of the prefix: a circuit iff every
                # coefficient is strictly negative
                if max(column[free:], default=-1) < 0:
                    found.append(prefix | 1 << j)
                continue
            if j + 1 == count:
                continue
            later = table[j - last:]
            if free > 1:
                longer.append(
                    (prefix | 1 << j, j, *pivot_columns(later, column, row, free, scale))
                )
            else:
                longer.append((prefix | 1 << j, j, column, later))
    return found, longer


def _decide_signs(count: int, level: list[tuple]) -> list[int]:
    """The circuits of each (mask, largest index, pivot column, later
    columns) prefix that spans, in order: each later column is a
    combination of the prefix, so it is decided by the signs of the inverse
    entries the pivot on the single annihilator row would give, with no
    tableau built and no division, which keeps signs."""
    found = []
    for prefix, last, column, later in level:
        alpha, inverse = column[0], column[1:]
        sign = 1 if alpha > 0 else -1
        alpha *= sign
        for i, entries in enumerate(later, last + 1):
            b = sign * entries[0]
            if b < 0:
                for a, x in zip(entries[1:], inverse):
                    if alpha * a >= x * b:
                        break
                else:
                    found.append(prefix | 1 << i)
    return found


def masks_lacking(count: int) -> list[int]:
    """One 2^count-bit int per index i < count, whose bit mask is set iff
    mask lacks i: runs of 2^i ones and 2^i zeros, built by doubling."""
    size = 1 << count
    lacks = []
    for i in range(count):
        pattern, width = (1 << (1 << i)) - 1, 2 << i
        while width < size:
            pattern |= pattern << width
            width <<= 1
        lacks.append(pattern)
    return lacks


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
_FLAG_BITS = bytes.maketrans(b"\0\1", b"01")


def closed_flags(count: int, circuits: Sequence[int]) -> bytes:
    """The 2^count flags of `principal_table`: flag mask is 1 iff each index
    in mask lies in one of the circuits inside mask, that is, iff mask is
    the union of the circuits inside it.

    Bit mask of `slices[j]` is set iff j lies in a circuit inside mask.  The
    slices start at the circuits holding j; adding index i to every mask
    that lacks it, `s | (s & lacks[i]) << 2^i`, is the subset-union pass for
    bit i over all 2^count masks at once (a zeta transform over union).
    Mask is then closed iff every slice j has bit mask set or mask lacks j.
    """
    size = 1 << count
    lacks = masks_lacking(count)
    marks = bytearray((size + 7) >> 3)
    for c in circuits:
        marks[c >> 3] |= 1 << (c & 7)
    found = int.from_bytes(marks, "little")
    slices = [found & ~low for low in lacks]
    for i, low in enumerate(lacks):
        shift = 1 << i
        slices = [s | (s & low) << shift for s in slices]
    closed = (1 << size) - 1
    for s, low in zip(slices, lacks):
        closed &= s | low
    # binary digits come most significant first, so reversed they are in
    # mask order
    return format(closed, f"0{size}b")[::-1].encode().translate(_BIT_FLAGS)


def longest_closed_chain(
    labels: Sequence[str], is_closed: Callable[[int], bool]
) -> tuple[frozenset[str], ...]:
    """Longest strictly increasing chain of closed sets from {} to all labels.

    `is_closed` is called once per subset, given as an int mask whose bit i
    stands for sorted(labels)[i], and returns a bool (or 0 or 1); it must
    accept the empty set and the full set.  The closed sets must be graded,
    so that every maximal chain is a longest one.  Both callers pass {} and
    the principal subsets of a set that positively spans its span, which
    are graded (Reay 1965): `max_weak_reay` checks spanning first, and
    `recover_rank`'s inverse basis spans by definition.  Each step takes the
    least cover (comparing sorted label tuples), so the chain is the
    lexicographically least longest one; on any other family it is still
    the chain of least covers.  Refuses more than WORK_BUDGET labels.

    The answers become one 2^n-bit int, `above`: the closed strict
    supersets of the chain's top.  Its covers are its sets that are no
    strict superset of another: adding each free index to the sets lacking
    it, then the subset-union pass of `closed_flags`, gives those strict
    supersets.  The covers form an antichain, so the least one holds the
    lowest index in which two of them differ: keeping those that hold it,
    index by index, leaves only it.  `above` then keeps its supersets.
    """
    labels = sorted(labels)
    count = len(labels)
    check_budget(count, "the chain search over the labels")
    full = (1 << count) - 1
    flags = bytes(map(is_closed, range(full + 1)))
    above = int(flags[::-1].translate(_FLAG_BITS), 2)
    if not above & 1 or not above >> full & 1:
        raise PreconditionError("endpoints of the chain are not closed")
    # (sets lacking i, sets holding i, bit i) for each index not in the top
    free = [(low, ~low, 1 << i) for i, low in enumerate(masks_lacking(count))]
    chain = [0]
    above ^= 1
    while above:
        up = 0
        for low, _, bit in free:
            up |= (above & low) << bit
        for low, _, bit in free:
            up |= (up & low) << bit
        covers = above & ~up
        for _, has, _ in free:
            covers = covers & has or covers
        top = covers.bit_length() - 1
        chain.append(top)
        for _, has, bit in free:
            if top & bit:
                above &= has
        above ^= 1 << top
        free = [step for step in free if not top & step[2]]
    return tuple(
        frozenset(l for i, l in enumerate(labels) if mask >> i & 1) for mask in chain
    )


def max_weak_reay(x: Generators) -> tuple[int, tuple[frozenset[str], ...]]:
    """Maximum-cardinality weak Reay partition of x.

    Returns (s, blocks) where the prefix unions of the ordered blocks all
    positively span their own span.  The input must positively span its span,
    otherwise no such partition exists at all.

    The closed sets are the empty set and the principal subsets, settled by
    `principal_table` with at most sum_{k <= rank} C(n, k + 1) circuit
    decisions; the only LP is the spanning precondition.
    """
    gens = x if isinstance(x, GeneratorSet) else GeneratorSet.from_vectors(x)
    if not positively_spans_its_span(gens):
        raise PreconditionError("generators do not positively span their span")
    vecs = gens.vectors
    check_budget(len(vecs), "the chain search over the labels")
    closed, _ = principal_table(vecs)
    chain = longest_closed_chain(gens.labels, closed.__getitem__)
    blocks = tuple(cur - prev for prev, cur in zip(chain, chain[1:]))
    return len(blocks), blocks
