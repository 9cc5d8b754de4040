"""Model generators.

`claborn_model` realizes a finitely generated abelian group presented by
integer relations as class data: Smith-normalizing the relation matrix
splits off the free part, and each generator maps to its coordinates in it.
The three ready-made families are truncations of classical constructions
with alternating sign patterns; their closed forms are emitted directly
(they agree with the quotient computation up to a positive rescaling and an
invertible change of coordinates, which tests pin down).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Model
from .ratlin import smith_normal_form


@dataclass(frozen=True)
class RelationSet:
    """Integer relation rows over a fixed list of free generators."""

    generators: int
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.generators < 1:
            raise ValueError("at least one generator is required")
        rows = tuple(tuple(int(x) for x in row) for row in self.relations)
        for row in rows:
            if len(row) != self.generators:
                raise ValueError(
                    f"relation width {len(row)} differs from generator count "
                    f"{self.generators}"
                )
        object.__setattr__(self, "relations", rows)


def prime_name(prefix: str, index: int, count: int) -> str:
    width = len(str(count - 1))
    return f"{prefix}{index:0{width}d}"


def claborn_model(rel: RelationSet, prefix: str = "x") -> Model:
    """Class data of Z^k modulo the integer row space of the relations.

    The torsion part is dropped: ambient rank is k minus the relation rank,
    and generator i maps to row i of the column transform restricted to the
    free coordinates.
    """
    k = rel.generators
    if rel.relations:
        _, diag, v = smith_normal_form([list(row) for row in rel.relations])
        s = sum(
            1 for i in range(min(len(rel.relations), k)) if diag[i][i] != 0
        )
    else:
        v = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        s = 0
    rank = k - s
    pairs = [
        (
            prime_name(prefix, i, k),
            tuple(Fraction(v[i][j]) for j in range(s, k)),
        )
        for i in range(k)
    ]
    return Model(rank, tuple(pairs))


def _check_length(k: int) -> None:
    if k < 2:
        raise ValueError("truncations need at least two primes")


def _adjacent_relations(k: int, weight: int, anchored: bool = False) -> RelationSet:
    """Rows e_n + weight * e_{n+1} over adjacent generators; an anchored set
    starts from the row e_0 in place of e_0 + weight * e_1."""
    _check_length(k)
    rows = [(1,) + (0,) * (k - 1)] if anchored else []
    for n in range(len(rows), k - 1):
        row = [0] * k
        row[n] = 1
        row[n + 1] = weight
        rows.append(tuple(row))
    return RelationSet(k, tuple(rows))


def d1_relations(k: int) -> RelationSet:
    return _adjacent_relations(k, 1)


def d2_relations(k: int) -> RelationSet:
    return _adjacent_relations(k, 2)


def d3_relations(k: int) -> RelationSet:
    return _adjacent_relations(k, 1, anchored=True)


def _rank_one(prefix: str, k: int, cls) -> Model:
    """Rank-one class data: prime n of k is named from `prefix` and has the
    class cls(n)."""
    _check_length(k)
    pairs = ((prime_name(prefix, n, k), (Fraction(cls(n)),)) for n in range(k))
    return Model(1, tuple(pairs))


def gen_d1(k: int) -> Model:
    """Alternating unit classes: rank 1, no principal singleton."""
    return _rank_one("P", k, lambda n: (-1) ** n)


def gen_d2(k: int) -> Model:
    """Alternating halved classes (-1)^n / 2^n: same support poset as gen_d1."""
    return _rank_one("Q", k, lambda n: Fraction((-1) ** n, 2**n))


def gen_d3(k: int) -> Model:
    """One torsion prime (class zero) plus alternating units: the zero class
    makes {R0} principal, which gen_d1 never has."""
    return _rank_one("R", k, lambda n: -((-1) ** n) if n else 0)
