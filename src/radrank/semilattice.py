"""The support semilattice and its structure maps.

Principal supports form a semilattice under union, with divisibility turning
into containment.  Coprimality of a tuple can be decided two ways: the raw
definition quantifies over decompositions inside the finite family V (built
per call, nothing kept on the model), the support criterion just intersects.
On witness-rich models the maximal product-proper subfamilies are exactly the
per-prime stars nu(P), which is what lets an isomorphism of the families be
transported back to a bijection of the primes: eta = theta . phi . nu.
Both isomorphism routes read V's circuits, its minimal members, which the
model keeps with V (`v_circuits`); V is their union closure.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Mapping, Optional, Sequence

from .errors import PreconditionError, StructureError
from .model import Model, PrimeId, Support, enumerate_v, v_circuits, v_index, validate

Family = tuple[Support, ...]


def divides(x: Iterable[str], y: Iterable[str]) -> bool:
    """Divisibility in the support semilattice is containment."""
    return frozenset(x) <= frozenset(y)


def meet(x: Iterable[str], y: Iterable[str]) -> Support:
    """The meet (product) of two supports is their union; order is reversed."""
    return frozenset(x) | frozenset(y)


def _principal_masks(m: Model, supports: Iterable[Iterable[str]]) -> list[int]:
    """The supports as masks over `m.ids()`, refusing any not a member of V."""
    index = v_index(m)
    masks = []
    for s in supports:
        sup = m.check_ids(s)
        if sup not in index:
            raise ValueError(f"support {sorted(sup)} is not principal in this model")
        masks.append(index[sup])
    return masks


def product_coprime_raw(m: Model, supports: Sequence[Iterable[str]]) -> bool:
    """Coprimality by the finite-semigroup definition.

    The tuple fails exactly when some member Z decomposes as a_j * B_j for
    every j while a chosen prime of one a_j escapes all the other B_i.  V is
    union-closed, so the Z every coordinate divides are the members containing
    the union U of the coordinates, and only members B containing U - a_j
    decompose such a Z.  Each coordinate's table {Z: primes of Z omitted by
    some such B} is built from those members alone, per call.  The B_i are
    chosen independently, so the escape test factors through a single prime,
    which is what the loop below checks over the Z of the tables.
    """
    masks = _principal_masks(m, supports)
    if len(masks) < 2:
        raise ValueError("coprimality concerns tuples of at least two supports")
    union = 0
    for a in masks:
        union |= a
    members = v_index(m).values()
    tables = []
    for a in masks:
        need = union & ~a
        table: dict[int, int] = {}
        for b in members:
            if b & need == need:
                z = a | b
                table[z] = table.get(z, 0) | (z & ~b)
        tables.append(table)
    for z in tables[0]:
        for j, a in enumerate(masks):
            escape = z  # primes omittable by every other coordinate
            for i, table in enumerate(tables):
                if i != j:
                    escape &= table[z]
            if escape & a:
                return False
    return True


def product_coprime_supports(supports: Sequence[Iterable[str]]) -> bool:
    """Coprimality by the support criterion: no common prime."""
    sups = [frozenset(s) for s in supports]
    if len(sups) < 2:
        raise ValueError("coprimality concerns tuples of at least two supports")
    return not frozenset.intersection(*sups)


def is_product_proper(m: Model, family: Iterable[Iterable[str]]) -> bool:
    """No subfamily of size >= 2 coprime; by the support criterion that is
    exactly a common prime (the full family has the smallest intersection).
    Singleton families count as product-proper."""
    fam = {m.check_ids(s) for s in family}
    _principal_masks(m, fam)
    if len(fam) >= len(enumerate_v(m)):
        raise ValueError("a product-proper family must be a proper subfamily")
    return len(fam) <= 1 or not product_coprime_supports(fam)


def nu(m: Model, pid: PrimeId) -> Family:
    """All members of V containing the given prime, in `enumerate_v` order:
    the index's masks filtered by the prime's bit."""
    (pid,) = m.check_ids([pid])
    bit = 1 << m.ids().index(pid)
    index = v_index(m)
    return tuple(compress(index, map(bit.__and__, index.values())))


def theta(m: Model, family: Iterable[Iterable[str]]) -> PrimeId:
    """The prime common to every member of a maximal product-proper family."""
    fam = [frozenset(s) for s in family]
    if not fam:
        raise ValueError("theta needs a nonempty family")
    m.check_ids(frozenset.union(*fam))
    common = frozenset.intersection(*fam)
    if len(common) != 1:
        raise StructureError(
            f"family has common prime set {sorted(common)}; "
            "expected exactly one (model too degenerate)"
        )
    (pid,) = common
    return pid


def mprop(m: Model) -> tuple[Family, ...]:
    """All maximal product-proper subfamilies, one star nu(P) per prime, in
    `m.ids()` order.  On a witness-rich model theta(nu(P)) = P, so the CLI
    names each star by the prime at its position and never runs theta.

    Refuses models that are not witness-rich: there the stars need not be
    maximal or exhaustive, so certifying them would assert a theorem whose
    hypotheses fail at this truncation.
    """
    report = validate(m)
    if not report.witness_rich:
        raise PreconditionError(
            "model is not witness-rich at this truncation; "
            "maximal product-proper families are not certified"
        )
    return tuple(nu(m, pid) for pid in m.ids())


# --- isomorphisms -----------------------------------------------------------

def find_iso(ma: Model, mb: Model) -> Optional[dict[PrimeId, PrimeId]]:
    """Search for a prime bijection sending V(ma) exactly onto V(mb).

    A bijection does iff it maps circuits onto circuits.  Exhaustive
    backtracking over prime assignments, pruned by per-prime circuit
    signatures (circuit counts by size); each circuit of ma is checked when
    its highest prime is assigned.  Candidates are tried in ascending id
    order, so the first hit is the lexicographically least bijection and the
    result is schedule-independent.  Returns None when no isomorphism exists.
    """
    n = len(ma.ids())
    if n != len(mb.ids()):
        return None

    def signatures(m: Model) -> list[tuple[int, ...]]:
        counts = [[0] * n for _ in range(n)]
        for c in v_circuits(m):
            for i in range(n):
                counts[i][c.bit_count() - 1] += c >> i & 1
        return [tuple(c) for c in counts]

    sig_a, sig_b = signatures(ma), signatures(mb)
    # equal sorted signatures give equal circuit counts, so into means onto,
    # and V, the union closure of the circuits, goes onto V(mb) as well
    if sorted(sig_a) != sorted(sig_b):
        return None
    cb = set(v_circuits(mb))
    # by_top[d]: the circuits of ma whose highest prime is d, as prime indices
    by_top: list[list[list[int]]] = [[] for _ in range(n)]
    for c in v_circuits(ma):
        by_top[c.bit_length() - 1].append([i for i in range(n) if c >> i & 1])
    # image[d]: the index in mb.ids() of prime d's image.  A loop, not a
    # closure calling itself: that would be a reference cycle per call.
    image: list[int] = []
    j = 0  # the next candidate image for prime len(image)
    while len(image) < n:
        depth = len(image)
        if j == n:
            if not image:
                return None
            j = image.pop() + 1
            continue
        if j not in image and sig_b[j] == sig_a[depth]:
            image.append(j)
            if all(sum(1 << image[i] for i in c) in cb for c in by_top[depth]):
                j = 0
                continue
            image.pop()
        j += 1
    return {pid: mb.ids()[image[d]] for d, pid in enumerate(ma.ids())}


def extend_iso(
    ma: Model,
    mb: Model,
    phi: Mapping[frozenset, frozenset] | Iterable[tuple[Iterable[str], Iterable[str]]],
) -> tuple[dict[PrimeId, PrimeId], bool]:
    """Transport a semilattice isomorphism phi: V(ma) -> V(mb) to the primes.

    phi is checked to be a union-preserving bijection of the two families.
    V is the union closure of its circuits (`v_circuits`), so phi preserves
    unions iff phi(x | c) = phi(x) | phi(c) for every member x and circuit
    c; a failure names the least such pair in `enumerate_v` order.
    Each prime P goes to the unique prime common to the phi-images of the
    members through P; the returned flag records whether the induced prime map
    reproduces phi on every member.
    """
    pairs = phi.items() if isinstance(phi, Mapping) else phi
    mapping: dict[Support, Support] = {}
    for src, dst in pairs:
        key = ma.check_ids(src)
        if key in mapping:
            raise ValueError(f"phi maps {sorted(key)} twice")
        mapping[key] = mb.check_ids(dst)
    va = enumerate_v(ma)
    vb = set(enumerate_v(mb))
    if set(mapping) != set(va):
        raise ValueError("phi must be defined on exactly the principal supports")
    if set(mapping.values()) != vb or len(set(mapping.values())) != len(mapping):
        raise ValueError("phi must map onto the codomain principal supports")
    ids = ma.ids()
    circuits = [
        frozenset(p for i, p in enumerate(ids) if c >> i & 1) for c in v_circuits(ma)
    ]
    for x in va:
        for c in circuits:
            if mapping[x | c] != mapping[x] | mapping[c]:
                raise ValueError(
                    f"phi does not preserve products: breaks at "
                    f"{sorted(x)} and {sorted(c)}"
                )
    if not validate(ma).witness_rich or not validate(mb).witness_rich:
        raise PreconditionError(
            "both models must be witness-rich to transport an isomorphism"
        )
    eta = {pid: theta(mb, [mapping[s] for s in nu(ma, pid)]) for pid in ids}
    if len(set(eta.values())) != len(eta):
        raise StructureError("induced prime map is not injective")
    verified = all(
        frozenset(eta[p] for p in s) == mapping[s] for s in va
    )
    return eta, verified
