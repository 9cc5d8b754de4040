"""Positive cones over Q^n: spanning tests, positive bases, weak Reay partitions.

A finite set S positively spans its linear span iff -(sum of S) lies in the
nonnegative hull of S (Gordan's alternative), and that one LP drives every
spanning decision here; the per-generator form is kept only as a test oracle.
Partitions are represented by their chains of prefix unions; the
maximum-cardinality search is an exhaustive dynamic program over the subset
lattice, which caps the practical size at a dozen generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import DimensionError, PreconditionError, ResourceLimitError
from .ratlin import Vector, cone_member, linear_rank, vec

MAX_PARTITION_GENERATORS = 12


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
        vecs = [vec(v) for v in vectors]
        if labels is None:
            width = max(2, len(str(max(len(vecs) - 1, 0))))
            labels = [f"g{i:0{width}d}" for i in range(len(vecs))]
        return cls(tuple(labels), tuple(vecs))

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

    One LP: is -(sum of x) in that hull?  Empty x counts as spanning.
    """
    vecs = _vectors(x)
    return not vecs or cone_member([-sum(col) for col in zip(*vecs)], vecs)[0]


def _spans_space(vecs: Sequence[Vector], n: int) -> bool:
    for v in vecs:
        if len(v) != n:
            raise DimensionError("vector dimension differs from ambient dimension")
    return linear_rank(vecs) == n and positively_spans_its_span(vecs)


def is_positive_basis(x: Generators, n: int) -> bool:
    """Does x positively span Q^n with no generator removable?"""
    vecs = _vectors(x)
    if not _spans_space(vecs, n):
        return False
    for i in range(len(vecs)):
        rest = vecs[:i] + vecs[i + 1 :]
        if _spans_space(rest, n):
            return False
    return True


def extract_positive_basis(x: Generators, n: int) -> GeneratorSet:
    """Deterministically thin a positively spanning set down to a positive basis.

    Grows an ascending-label prefix until it positively spans Q^n, then prunes
    redundant members, again in ascending label order.
    """
    gens = x if isinstance(x, GeneratorSet) else GeneratorSet.from_vectors(x)
    if not _spans_space(gens.vectors, n):
        raise PreconditionError("input does not positively span the ambient space")
    kept: list[str] = []
    if not _spans_space((), n):
        for label, vector in zip(gens.labels, gens.vectors):
            kept.append(label)
            if _spans_space(gens.subset(kept).vectors, n):
                break
    for label in list(kept):
        trial = [l for l in kept if l != label]
        if _spans_space(gens.subset(trial).vectors, n):
            kept = trial
    return gens.subset(kept)


def longest_closed_chain(
    labels: Sequence[str], is_closed: Callable[[int], bool]
) -> tuple[frozenset[str], ...]:
    """Longest strictly increasing chain of closed sets from {} to all labels.

    `is_closed` is called once per subset, given as an int mask whose bit i
    stands for sorted(labels)[i]; it must accept the empty set and the full
    set.  Among maximum chains the lexicographically least one (comparing
    sorted label tuples, front first) is returned, so results do not depend
    on evaluation order.  Runs the O(3^len) subset-lattice program; refuses
    more than MAX_PARTITION_GENERATORS labels.
    """
    labels = sorted(labels)
    count = len(labels)
    if count > MAX_PARTITION_GENERATORS:
        raise ResourceLimitError(
            f"chain search over {count} generators exceeds the bound "
            f"{MAX_PARTITION_GENERATORS}"
        )
    full = (1 << count) - 1

    def members(mask: int) -> tuple[str, ...]:
        return tuple(labels[i] for i in range(count) if mask >> i & 1)

    closed = [is_closed(mask) for mask in range(full + 1)]
    if not closed[0] or not closed[full]:
        raise PreconditionError("endpoints of the chain are not closed")

    # steps[mask] = longest chain length from mask up to full
    steps: dict[int, int] = {full: 0}
    order = sorted((m for m in range(full) if closed[m]), key=int.bit_count, reverse=True)
    for mask in order:
        comp = full ^ mask
        best = -1
        sub = comp
        while sub:
            sup = mask | sub
            if closed[sup]:
                got = steps.get(sup, -2)
                if got >= 0 and got + 1 > best:
                    best = got + 1
            sub = (sub - 1) & comp
        if best >= 0:
            steps[mask] = best

    chain = [0]
    cur = 0
    while cur != full:
        comp = full ^ cur
        best_mask = None
        best_key = None
        sub = comp
        while sub:
            sup = cur | sub
            if closed[sup] and steps.get(sup, -1) == steps[cur] - 1:
                key = members(sup)
                if best_key is None or key < best_key:
                    best_key = key
                    best_mask = sup
            sub = (sub - 1) & comp
        assert best_mask is not None
        chain.append(best_mask)
        cur = best_mask
    return tuple(frozenset(members(mask)) for mask in chain)


def max_weak_reay(x: Generators) -> tuple[int, tuple[frozenset[str], ...]]:
    """Maximum-cardinality weak Reay partition of x.

    Returns (s, blocks) where the prefix unions of the ordered blocks all
    positively span their own span.  The input must positively span its span,
    otherwise no such partition exists at all.
    """
    gens = x if isinstance(x, GeneratorSet) else GeneratorSet.from_vectors(x)
    if len(gens) == 0:
        return 0, ()
    if not positively_spans_its_span(gens.vectors):
        raise PreconditionError("generators do not positively span their span")
    vecs = gens.vectors

    def closed(mask: int) -> bool:
        return positively_spans_its_span(
            [v for i, v in enumerate(vecs) if mask >> i & 1]
        )

    chain = longest_closed_chain(gens.labels, closed)
    blocks = tuple(
        frozenset(cur - prev) for prev, cur in zip(chain, chain[1:])
    )
    return len(blocks), blocks
