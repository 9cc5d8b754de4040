"""Rank recovery from the support poset.

The almost-inverses of a prime set D are the primes whose negated class lies
in the nonnegative hull of D's classes; equivalently (and cone-free) the
primes Q such that {Q} together with part of D is principal.  A minimal D
whose almost-inverses cover every prime is an inverse basis; the longest
chain of self-inverse subsets inside it has |D| - rank steps, so the rank of
the class data falls out of pure poset bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import Iterable

from .cones import (
    GeneratorSet,
    longest_closed_chain,
    max_weak_reay,
    positively_spans_its_span,
    positively_spans_rank,
)
from .errors import PreconditionError, check_budget
from .model import Model, PrimeId, Support, enumerate_v, support_mask, v_masks, v_membership
from .ratlin import cone_member, linear_rank, vec_neg


@dataclass(frozen=True)
class ReayChain:
    """Strictly increasing chain of self-inverse prime sets, empty set first."""

    subsets: tuple[Support, ...]

    def __post_init__(self) -> None:
        if not self.subsets or self.subsets[0]:
            raise ValueError("a chain starts at the empty set")
        for prev, cur in zip(self.subsets, self.subsets[1:]):
            if not prev < cur:
                raise ValueError("chain subsets must strictly increase")

    @property
    def cardinality(self) -> int:
        return len(self.subsets) - 1

    @property
    def blocks(self) -> tuple[Support, ...]:
        return tuple(
            frozenset(cur - prev)
            for prev, cur in zip(self.subsets, self.subsets[1:])
        )


def inv_enum(m: Model, delta: Iterable[PrimeId]) -> Support:
    """Almost-inverses of delta by support enumeration alone.

    Q qualifies when {Q} union T is principal for some subset T of delta,
    the empty T included.
    """
    d = m.check_ids(delta)
    check_budget(len(d), "enumerating the subsets of delta")
    ordered = sorted(d)
    subsets = list(
        chain.from_iterable(combinations(ordered, size) for size in range(len(ordered) + 1))
    )
    out = set()
    for q in m.ids():
        if any(v_membership(m, {q, *t}) for t in subsets):
            out.add(q)
    return frozenset(out)


def inv_cone(m: Model, delta: Iterable[PrimeId]) -> Support:
    """Almost-inverses of delta by cone membership of the negated classes."""
    d = m.check_ids(delta)
    gens = [m.vector(p) for p in sorted(d)]
    return frozenset(
        q for q in m.ids() if cone_member(vec_neg(m.vector(q)), gens)[0]
    )


def is_self_inverse(m: Model, subset: Iterable[PrimeId]) -> bool:
    """Does every member of the subset lie among its own almost-inverses?

    Equivalent to the classes of the subset positively spanning their span,
    one LP in `positively_spans_its_span`; the per-member loop over this
    definition is kept only as a test oracle.
    """
    s = m.check_ids(subset)
    return positively_spans_its_span([m.vector(p) for p in sorted(s)])


def find_inverse_basis(m: Model) -> Support:
    """Greedy minimal prime set whose almost-inverses are all primes.

    Trial removals run in ascending id order starting from the full prime
    set; a removal sticks whenever the remainder still positively spans the
    span of all classes, which is when its almost-inverses are all primes.
    """
    if not positively_spans_its_span(m.vectors()):
        raise PreconditionError("class vectors do not positively span their span")
    full = linear_rank(m.vectors())
    delta = list(m.ids())
    for pid in m.ids():
        trial = [p for p in delta if p != pid]
        if positively_spans_rank([m.vector(p) for p in trial], full):
            delta = trial
    return frozenset(delta)


def max_reay_chain(m: Model, delta: Iterable[PrimeId]) -> ReayChain:
    """Longest chain of self-inverse subsets from {} up to an inverse basis."""
    labels = tuple(sorted(m.check_ids(delta)))
    vecs = tuple(m.vector(p) for p in labels)
    full = linear_rank(m.vectors())
    if not positively_spans_rank(vecs, full):
        raise PreconditionError("delta is not an inverse basis (does not cover)")
    for i in range(len(vecs)):
        if positively_spans_rank(vecs[:i] + vecs[i + 1 :], full):
            raise PreconditionError("delta is not an inverse basis (not minimal)")
    # Self-inverse subsets of delta are the closed sets of the weak Reay
    # partition problem on delta's classes.
    _, blocks = max_weak_reay(GeneratorSet(labels, vecs))
    return ReayChain(tuple(accumulate(blocks, frozenset.union, initial=frozenset())))


def recover_rank(m: Model) -> int:
    """Rank of the class data from the support poset alone.

    Runs the inverse-basis greedy and the chain search with membership in V
    as the only primitive; the class vectors never enter.  The result is
    |basis| - (longest self-inverse chain length).
    """
    ids = m.ids()
    by_prime = [[mask for mask in v_masks(m) if mask >> i & 1] for i in range(len(ids))]
    if not all(by_prime):
        # Some prime lies in no member, i.e. its inverse is unreachable; this
        # is the poset form of "not positively spanning".
        raise PreconditionError("class vectors do not positively span their span")

    def covers_all(mask: int) -> bool:
        return all(
            any(hit & ~(mask | 1 << i) == 0 for hit in hits)
            for i, hits in enumerate(by_prime)
        )

    delta = (1 << len(ids)) - 1
    for i in range(len(ids)):
        if covers_all(delta & ~(1 << i)):
            delta &= ~(1 << i)

    # A subset is self-inverse when each of its primes lies in a member inside
    # it, i.e. when it is the union of the members it contains.  The chain
    # search's masks index delta_ids, so members inside delta are encoded so.
    delta_ids = [pid for i, pid in enumerate(ids) if delta >> i & 1]
    inside = [
        support_mask(delta_ids, s) for s in enumerate_v(m) if s.issubset(delta_ids)
    ]

    def self_inverse(subset: int) -> bool:
        union = 0
        for mask in inside:
            if mask & ~subset == 0:
                union |= mask
        return union == subset

    chain_sets = longest_closed_chain(delta_ids, self_inverse)
    return len(delta_ids) - (len(chain_sets) - 1)
