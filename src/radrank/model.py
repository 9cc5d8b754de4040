"""Finite class-data models.

A model assigns each prime label a rational class vector in Q^r.  A nonempty
set of primes is a *principal support* when some strictly positive rational
combination of its class vectors vanishes; the family V of all principal
supports is the finite poset everything downstream works on.  Membership is
decided exactly, and every answer is cached on the model, which is immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .errors import ModelFormatError, check_budget
from .ratlin import (
    Vector,
    format_vector,
    linear_rank,
    mat_vec,
    parse_rational,
    strict_zero_combination,
    vec,
)
from .cones import positively_spans_its_span
from itertools import combinations

PrimeId = str
Support = frozenset[str]

PrimesInput = Union[Mapping[str, Sequence], Iterable[tuple[str, Sequence]]]


@dataclass(frozen=True)
class Model:
    ambient_rank: int
    primes: tuple[tuple[PrimeId, Vector], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.ambient_rank < 0:
            raise ValueError("ambient rank must be nonnegative")
        items = (
            list(self.primes.items())
            if isinstance(self.primes, Mapping)
            else list(self.primes)
        )
        if not items:
            raise ValueError("a model needs at least one prime")
        seen = set()
        cleaned = []
        for pid, coords in items:
            if not isinstance(pid, str) or not pid:
                raise ValueError(f"prime id must be a nonempty string, got {pid!r}")
            if pid in seen:
                raise ValueError(f"duplicate prime id {pid!r}")
            seen.add(pid)
            v = vec(coords)
            if len(v) != self.ambient_rank:
                raise ValueError(
                    f"class vector for {pid!r} has length {len(v)}, "
                    f"expected {self.ambient_rank}"
                )
            cleaned.append((pid, v))
        cleaned.sort(key=lambda item: item[0])
        object.__setattr__(self, "primes", tuple(cleaned))

    def ids(self) -> tuple[PrimeId, ...]:
        return tuple(pid for pid, _ in self.primes)

    def vector(self, pid: PrimeId) -> Vector:
        for p, v in self.primes:
            if p == pid:
                return v
        raise ValueError(f"unknown prime id {pid!r}")

    def vectors(self) -> tuple[Vector, ...]:
        return tuple(v for _, v in self.primes)

    def check_ids(self, ids: Iterable[PrimeId]) -> frozenset[str]:
        s = frozenset(ids)
        unknown = s - set(self.ids())
        if unknown:
            raise ValueError(f"unknown prime ids: {sorted(unknown)}")
        return s


@dataclass(frozen=True)
class ValidationReport:
    positively_spanning: bool
    witness_rich: bool
    linear_rank: int


def v_membership(m: Model, support: Iterable[PrimeId]) -> bool:
    """Is the support principal, i.e. does a strictly positive combination of
    its class vectors vanish?"""
    s = m.check_ids(support)
    if not s:
        raise ValueError("a support must contain at least one prime")
    key = ("member", s)
    got = m._cache.get(key)
    if got is None:
        ok, _ = strict_zero_combination([m.vector(p) for p in sorted(s)])
        m._cache[key] = got = ok
    return got


def enumerate_v(m: Model) -> tuple[Support, ...]:
    """All principal supports, ordered by (size, sorted ids)."""
    ids = m.ids()
    check_budget(len(ids), "enumerating V over the primes")
    got = m._cache.get("enumerate")
    if got is None:
        members = []
        for size in range(1, len(ids) + 1):
            for combo in combinations(ids, size):
                if v_membership(m, combo):
                    members.append(frozenset(combo))
        got = tuple(members)
        m._cache["enumerate"] = got
    return got


def support_mask(ids: Sequence[PrimeId], support: Collection[PrimeId]) -> int:
    """A support as an int mask over an id order: bit i stands for ids[i].
    Over `m.ids()` this is the encoding of `v_masks(m)`."""
    return sum(1 << i for i, pid in enumerate(ids) if pid in support)


def v_masks(m: Model) -> tuple[int, ...]:
    """`enumerate_v(m)` as support masks over `m.ids()`, in the same order."""
    if "masks" not in m._cache:
        m._cache["masks"] = tuple(support_mask(m.ids(), s) for s in enumerate_v(m))
    return m._cache["masks"]


def sort_supports(supports: Iterable[Support]) -> tuple[Support, ...]:
    return tuple(sorted(supports, key=lambda s: (len(s), sorted(s))))


def validate(m: Model) -> ValidationReport:
    """Spanning, witness-richness, and rank of the class data."""
    vecs = m.vectors()
    spanning = positively_spans_its_span(vecs)
    ids = m.ids()
    # Witness-richness quantifies over every prime P and every subset T of the
    # others, asking for a member avoiding P and containing T.  The hardest T
    # is all other primes, and a member covering it works for every smaller T,
    # so the complement test below is the whole check.
    rich = len(ids) >= 2 and all(
        v_membership(m, set(ids) - {pid}) for pid in ids
    )
    return ValidationReport(spanning, rich, linear_rank(vecs))


def transform(
    m: Model,
    matrix: Sequence[Sequence],
    scales: Optional[Mapping[PrimeId, Fraction]] = None,
) -> Model:
    """Apply an invertible rational matrix and positive per-prime scalings.

    Class data is only meaningful up to this action; every poset-level
    operation must be invariant under it.
    """
    r = m.ambient_rank
    rows = [vec(row) for row in matrix]
    if len(rows) != r or any(len(row) != r for row in rows):
        raise ValueError(f"transform matrix must be {r}x{r}")
    if linear_rank(rows) != r:
        raise ValueError("transform matrix is singular")
    factors = {}
    for pid in m.ids():
        q = Fraction(scales[pid]) if scales and pid in scales else Fraction(1)
        if q <= 0:
            raise ValueError(f"scale for {pid!r} must be positive")
        factors[pid] = q
    if scales:
        unknown = set(scales) - set(m.ids())
        if unknown:
            raise ValueError(f"scales name unknown prime ids: {sorted(unknown)}")
    new = [
        (pid, tuple(factors[pid] * x for x in mat_vec(rows, v)))
        for pid, v in m.primes
    ]
    return Model(r, tuple(new))


# --- serialization ----------------------------------------------------------

def model_to_dict(m: Model) -> dict:
    return {
        "ambient_rank": m.ambient_rank,
        "primes": [
            {"id": pid, "class": format_vector(v)} for pid, v in m.primes
        ],
    }


def model_from_dict(data: object) -> Model:
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    if "ambient_rank" not in data:
        raise ModelFormatError("missing field: ambient_rank")
    rank = data["ambient_rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ModelFormatError("ambient_rank: expected a nonnegative integer")
    entries = data.get("primes")
    if not isinstance(entries, list) or not entries:
        raise ModelFormatError("primes: expected a nonempty array")
    pairs = []
    for i, entry in enumerate(entries):
        where = f"primes[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{where}: expected an object")
        pid = entry.get("id")
        if not isinstance(pid, str) or not pid:
            raise ModelFormatError(f"{where}.id: expected a nonempty string")
        coords = entry.get("class")
        if not isinstance(coords, list):
            raise ModelFormatError(f"{where}.class: expected an array")
        if len(coords) != rank:
            raise ModelFormatError(
                f"{where}.class: expected {rank} entries, got {len(coords)}"
            )
        parsed = []
        for j, item in enumerate(coords):
            try:
                parsed.append(parse_rational(item))
            except ValueError as exc:
                raise ModelFormatError(f"{where}.class[{j}]: {exc}") from None
        pairs.append((pid, tuple(parsed)))
    try:
        return Model(rank, tuple(pairs))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def dumps_model(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2) + "\n"


def loads_model(text: str) -> Model:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return model_from_dict(data)


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_model(handle.read())


def save_model(m: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_model(m))
