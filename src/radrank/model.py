"""Finite class-data models.

A model assigns each prime label a rational class vector in Q^r.  A nonempty
set of primes is a *principal support* when some strictly positive rational
combination of its class vectors vanishes; the family V of all principal
supports is the finite poset everything downstream works on.  Membership is
decided exactly, and V, once enumerated, is kept on the model, which is
immutable.

V is closed under unions, and each member is a union of positive circuits:
the supports of the extreme rays of {lambda >= 0 : A lambda = 0}, each of at
most rank + 1 primes (rank = linear rank of the class vectors).  So
`enumerate_v` reads one `cones.principal_table`, the table the weak Reay
chain also reads: at most sum_{k <= rank} C(n, k + 1) exact decisions, each
read off an integer elimination tableau carried down from a shorter prefix,
find the circuits over n primes, V's minimal members (`v_circuits`), and n^2
big-int operations on one 2^n-bit slice per prime settle the rest, with no
LP.  `v_membership` on a single support is the LP.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, compress
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .errors import ModelFormatError, check_budget
from .ratlin import (
    Vector,
    format_vector,
    linear_rank,
    mat_vec,
    parse_vector,
    strict_zero_combination,
    vec,
)
from .cones import positively_spans_its_span, principal_table

PrimeId = str
Support = frozenset[str]


@dataclass(frozen=True)
class Model:
    ambient_rank: int
    primes: tuple[tuple[PrimeId, Vector], ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _by_id: dict = field(init=False, compare=False, repr=False)
    _ids: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        r = self.ambient_rank
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise ValueError("ambient_rank: expected a nonnegative integer")
        items = (
            list(self.primes.items())
            if isinstance(self.primes, Mapping)
            else list(self.primes)
        )
        if not items:
            raise ValueError("primes: expected a nonempty array")
        seen = set()
        cleaned = []
        for i, (pid, coords) in enumerate(items):
            if not isinstance(pid, str) or not pid:
                raise ValueError(f"primes[{i}].id: expected a nonempty string")
            if pid in seen:
                raise ValueError(f"duplicate prime id {pid!r}")
            seen.add(pid)
            v = vec(coords)
            if len(v) != r:
                raise ValueError(
                    f"primes[{i}].class: expected {r} entries, got {len(v)}"
                )
            cleaned.append((pid, v))
        cleaned.sort(key=lambda item: item[0])
        object.__setattr__(self, "primes", tuple(cleaned))
        object.__setattr__(self, "_by_id", dict(cleaned))
        object.__setattr__(self, "_ids", tuple(self._by_id))

    def ids(self) -> tuple[PrimeId, ...]:
        return self._ids

    def vector(self, pid: PrimeId) -> Vector:
        if pid not in self._by_id:
            raise ValueError(f"unknown prime id {pid!r}")
        return self._by_id[pid]

    def vectors(self) -> tuple[Vector, ...]:
        return tuple(self._by_id.values())

    def check_ids(self, ids: Iterable[PrimeId]) -> frozenset[str]:
        s = frozenset(ids)
        if not self._by_id.keys() >= s:
            raise ValueError(f"unknown prime ids: {sorted(s - self._by_id.keys())}")
        return s


@dataclass(frozen=True)
class ValidationReport:
    positively_spanning: bool
    witness_rich: bool
    linear_rank: int


def v_membership(m: Model, support: Iterable[PrimeId]) -> bool:
    """Is the support principal, i.e. does a strictly positive combination of
    its class vectors vanish?

    Once V is known (`enumerate_v`), a member answers True from V's index
    and any other checked, nonempty support False, with no LP and nothing
    cached.  Before that, each support is one LP, and its verdict is cached
    under ("member", support)."""
    s = frozenset(support)
    got = m._cache.get("V")
    if got is not None and s in got[1]:
        return True
    m.check_ids(s)
    if not s:
        raise ValueError("a support must contain at least one prime")
    if got is not None:
        return False
    key = ("member", s)
    ok = m._cache.get(key)
    if ok is None:
        ok, _ = strict_zero_combination([m.vector(p) for p in sorted(s)])
        m._cache[key] = ok
    return ok


def enumerate_v(m: Model) -> tuple[Support, ...]:
    """All principal supports, ordered by (size, sorted ids).

    One `principal_table` over the class vectors, which finds the circuits
    by exact elimination and flags each subset closed or not by n^2
    big-int operations on 2^n-bit slices, with no LP.  For each size, one
    C-level pass over the subsets, as frozensets and masks, reads their
    flags and enters the members into V's {support: mask} index; then
    `v_membership` is asked about each subset of that size, one call per
    subset, which the index answers.  One key keeps V, that index, the
    circuits' masks and each size's flags, from which `v_joined` writes
    each member's text in the reports; it is set while the pass runs and
    dropped if the pass raises, so no partial V stays on the model.
    """
    ids = m.ids()
    check_budget(len(ids), "enumerating V over the primes")
    got = m._cache.get("V")
    if got is None:
        closed, circuits = principal_table(m.vectors())
        bits = [1 << i for i in range(len(ids))]
        index: dict[Support, int] = {}
        sized_flags: list[bytes] = []
        m._cache["V"] = ((), index, circuits, ())
        try:
            for size in range(1, len(ids) + 1):
                supports = list(map(frozenset, combinations(ids, size)))
                masks = list(map(sum, combinations(bits, size)))
                flags = bytes(map(closed.__getitem__, masks))
                index.update(zip(compress(supports, flags), compress(masks, flags)))
                sized_flags.append(flags)
                for support in supports:
                    v_membership(m, support)
        except BaseException:
            del m._cache["V"]
            raise
        m._cache["V"] = got = (tuple(index), index, circuits, tuple(sized_flags))
    return got[0]


def support_mask(ids: Sequence[PrimeId], support: Collection[PrimeId]) -> int:
    """A support as an int mask over an id order: bit i stands for ids[i].
    Over `m.ids()` this is the encoding of `v_index(m)`."""
    return sum(1 << i for i, pid in enumerate(ids) if pid in support)


def v_index(m: Model) -> dict[Support, int]:
    """`enumerate_v(m)` as {support: mask over `m.ids()`}, in the same order."""
    enumerate_v(m)
    return m._cache["V"][1]


def v_joined(m: Model, items: Sequence, join: Callable) -> tuple:
    """`enumerate_v(m)` with each member as `join` of its primes' `items`, a
    sequence parallel to `m.ids()`, in the same order: one C-level pass per
    size over the combinations of the items and the flags `enumerate_v`
    kept.  `v_joined(m, m.ids(), tuple)` gives the members' sorted id tuples."""
    enumerate_v(m)
    return tuple(chain.from_iterable(
        map(join, compress(combinations(items, size), flags))
        for size, flags in enumerate(m._cache["V"][3], 1)
    ))


def v_circuits(m: Model) -> tuple[int, ...]:
    """V's minimal members (its circuits) as masks, in `enumerate_v` order."""
    enumerate_v(m)
    return m._cache["V"][2]


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
    """The model a parsed document holds.  Only its shape is checked here;
    `Model` checks the values, so a shape fault is found first."""
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    if "ambient_rank" not in data:
        raise ModelFormatError("missing field: ambient_rank")
    entries = data.get("primes")
    if not isinstance(entries, list):
        raise ModelFormatError("primes: expected a nonempty array")
    pairs = []
    for i, entry in enumerate(entries):
        where = f"primes[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{where}: expected an object")
        coords = entry.get("class")
        if not isinstance(coords, list):
            raise ModelFormatError(f"{where}.class: expected an array")
        try:
            pairs.append((entry.get("id"), parse_vector(coords)))
        except ValueError as exc:
            raise ModelFormatError(f"{where}.class{exc}") from None
    try:
        return Model(data["ambient_rank"], tuple(pairs))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def dumps_model(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2) + "\n"


# Each escape of a parsed JSON text, a surrogate pair as one; group 1 is half
# a pair.  JSON has backslashes only in strings, so the scan tokenizes exactly.
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB]..\\u[dD][c-fC-F]..|(u[dD][89a-fA-F]..)|.)")
# A string or a number of a JSON text; an int has digits (group 1) alone.
# Compiled on first use, by the one error path that needs it.
_LITERAL = r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?'


def read_text(path: str) -> str:
    """The text of a UTF-8 file; an undecodable byte is a ModelFormatError."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8 at byte {exc.start}") from None


def _located(exc: json.JSONDecodeError) -> ModelFormatError:
    return ModelFormatError(f"line {exc.lineno} column {exc.colno}: {exc.msg}")


def loads_json(text: str) -> object:
    """The JSON document of `text`, read for every input file.  A syntax
    error, too deep nesting, an int past the digit limit and a string holding
    half a surrogate pair, which cannot be written as UTF-8, are each a
    ModelFormatError."""
    try:
        doc = json.loads(text)
        lone = "\\u" in text and next((m for m in _ESCAPE.finditer(text) if m[1]), None)
        if lone:
            raise json.JSONDecodeError(f"lone surrogate \\{lone[1]}", text, lone.start())
        return doc
    except json.JSONDecodeError as exc:
        raise _located(exc) from None
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply") from None
    except ValueError:
        # an int past the digit limit, which json.loads does not locate
        limit = sys.get_int_max_str_digits()
        big = next(
            m for m in re.finditer(_LITERAL, text)
            if m[1] and not (m[2] or m[3]) and len(m[1]) > limit
        )
        raise _located(json.JSONDecodeError(
            f"integer of {len(big[1])} digits exceeds the {limit}-digit limit",
            text, big.start(),
        )) from None


def loads_model(text: str) -> Model:
    return model_from_dict(loads_json(text))


def load_model(path: str) -> Model:
    return loads_model(read_text(path))


def save_model(m: Model, path: str) -> None:
    text = dumps_model(m)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
