"""The support semilattice and its structure maps.

Principal supports form a semilattice under union, with divisibility turning
into containment.  Coprimality of a tuple can be decided two ways: the raw
definition quantifies over decompositions inside the finite family V (one
table of decompositions per support), the support criterion just intersects.
On witness-rich models the maximal product-proper subfamilies are exactly the
per-prime stars nu(P), which is what lets an isomorphism of the families be
transported back to a bijection of the primes: eta = theta . phi . nu.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .errors import PreconditionError, StructureError
from .model import Model, PrimeId, Support, enumerate_v, support_mask, v_masks, validate

Family = tuple[Support, ...]


def divides(x: Iterable[str], y: Iterable[str]) -> bool:
    """Divisibility in the support semilattice is containment."""
    return frozenset(x) <= frozenset(y)


def meet(x: Iterable[str], y: Iterable[str]) -> Support:
    """The meet (product) of two supports is their union; order is reversed."""
    return frozenset(x) | frozenset(y)


def _tables(m: Model) -> dict[int, Optional[dict[int, int]]]:
    """Decomposition tables keyed by member mask, each built on first use."""
    if "decompositions" not in m._cache:
        m._cache["decompositions"] = dict.fromkeys(v_masks(m))
    return m._cache["decompositions"]


def _principal_masks(m: Model, supports: Iterable[Iterable[str]]) -> list[int]:
    """The supports as masks over `m.ids()`, refusing any not a member of V."""
    ids = m.ids()
    tables = _tables(m)
    masks = []
    for s in supports:
        sup = m.check_ids(s)
        mask = support_mask(ids, sup)
        if mask not in tables:
            raise ValueError(f"support {sorted(sup)} is not principal in this model")
        masks.append(mask)
    return masks


def _decompositions(m: Model, a: int) -> dict[int, int]:
    """For a member a: {Z = a | B over members B: primes of Z omitted by some
    such B}.  V is union-closed, so the keys are the members a divides."""
    tables = _tables(m)
    table = tables[a]
    if table is None:
        table = tables[a] = {}
        for b in v_masks(m):
            z = a | b
            table[z] = table.get(z, 0) | (z & ~b)
    return table


def product_coprime_raw(m: Model, supports: Sequence[Iterable[str]]) -> bool:
    """Coprimality by the finite-semigroup definition.

    The tuple fails exactly when some member Z decomposes as a_j * B_j for
    every j while a chosen prime of one a_j escapes all the other B_i.  The
    B_i are chosen independently, so the escape test factors through a single
    prime, which is what the loop below checks over the Z common to every
    coordinate's decomposition table.
    """
    masks = _principal_masks(m, supports)
    if len(masks) < 2:
        raise ValueError("coprimality concerns tuples of at least two supports")
    tables = [_decompositions(m, a) for a in masks]
    for z in set(tables[0]).intersection(*tables[1:]):
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
    common = sups[0]
    for s in sups[1:]:
        common &= s
    return not common


def is_product_proper(m: Model, family: Iterable[Iterable[str]]) -> bool:
    """No subfamily of size >= 2 coprime; by the support criterion that is
    exactly a common prime (the full family has the smallest intersection).
    Singleton families count as product-proper."""
    fam = {m.check_ids(s) for s in family}
    _principal_masks(m, fam)
    if len(fam) >= len(v_masks(m)):
        raise ValueError("a product-proper family must be a proper subfamily")
    return len(fam) <= 1 or not product_coprime_supports(fam)


def nu(m: Model, pid: PrimeId) -> Family:
    """All members of V containing the given prime."""
    (pid,) = m.check_ids([pid])
    return tuple(s for s in enumerate_v(m) if pid in s)


def theta(m: Model, family: Iterable[Iterable[str]]) -> PrimeId:
    """The prime common to every member of a maximal product-proper family."""
    fam = [m.check_ids(s) for s in family]
    if not fam:
        raise ValueError("theta needs a nonempty family")
    common = fam[0]
    for s in fam[1:]:
        common &= s
    if len(common) != 1:
        raise StructureError(
            f"family has common prime set {sorted(common)}; "
            "expected exactly one (model too degenerate)"
        )
    (pid,) = common
    return pid


def mprop(m: Model) -> tuple[Family, ...]:
    """All maximal product-proper subfamilies, one star nu(P) per prime.

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

def _degree_signature(ids: Sequence[str], members: Sequence[Support]) -> dict[str, tuple[int, ...]]:
    sizes = range(1, len(ids) + 1)
    return {
        pid: tuple(sum(1 for s in members if len(s) == size and pid in s) for size in sizes)
        for pid in ids
    }


def find_iso(ma: Model, mb: Model) -> Optional[dict[PrimeId, PrimeId]]:
    """Search for a prime bijection sending V(ma) exactly onto V(mb).

    Exhaustive backtracking over prime assignments, pruned by per-prime degree
    signatures (member counts by size).  Candidates are tried in ascending id
    order, so the first hit is the lexicographically least bijection and the
    result is schedule-independent.  Returns None when no isomorphism exists.
    """
    ids_a = ma.ids()
    ids_b = mb.ids()
    if len(ids_a) != len(ids_b):
        return None
    va = enumerate_v(ma)
    vb = enumerate_v(mb)
    if len(va) != len(vb):
        return None
    sig_a = _degree_signature(ids_a, va)
    sig_b = _degree_signature(ids_b, vb)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None
    candidates = {
        pid: [q for q in ids_b if sig_b[q] == sig_a[pid]] for pid in ids_a
    }

    va_masks = set(v_masks(ma))
    vb_masks = set(v_masks(mb))

    # The first len(image) primes of ids_a are assigned; image[i] is the image
    # of ids_a[i] and image_bits[i] its mask over ids_b.
    image: list[PrimeId] = []
    image_bits: list[int] = []

    def consistent() -> bool:
        # check every subset of the assigned primes that contains the newest
        new_bit = 1 << (len(image) - 1)
        prev = new_bit - 1
        sub = prev
        while True:
            mask_a = sub | new_bit
            mask_b = 0
            for i, bit_b in enumerate(image_bits):
                if mask_a >> i & 1:
                    mask_b |= bit_b
            if (mask_a in va_masks) != (mask_b in vb_masks):
                return False
            if sub == 0:
                break
            sub = (sub - 1) & prev
        return True

    def search(depth: int) -> bool:
        if depth == len(ids_a):
            return True
        for q in candidates[ids_a[depth]]:
            if q in image:
                continue
            image.append(q)
            image_bits.append(support_mask(ids_b, [q]))
            if consistent() and search(depth + 1):
                return True
            image.pop()
            image_bits.pop()
        return False

    return dict(zip(ids_a, image)) if search(0) else None


def extend_iso(
    ma: Model,
    mb: Model,
    phi: Mapping[frozenset, frozenset] | Iterable[tuple[Iterable[str], Iterable[str]]],
) -> tuple[dict[PrimeId, PrimeId], bool]:
    """Transport a semilattice isomorphism phi: V(ma) -> V(mb) to the primes.

    phi is checked to be a union-preserving bijection of the two families.
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
    va = set(enumerate_v(ma))
    vb = set(enumerate_v(mb))
    if set(mapping) != va:
        raise ValueError("phi must be defined on exactly the principal supports")
    if set(mapping.values()) != vb or len(set(mapping.values())) != len(mapping):
        raise ValueError("phi must map onto the codomain principal supports")
    for x in va:
        for y in va:
            if mapping[x | y] != mapping[x] | mapping[y]:
                raise ValueError(
                    f"phi does not preserve products: breaks at "
                    f"{sorted(x)} and {sorted(y)}"
                )
    if not validate(ma).witness_rich or not validate(mb).witness_rich:
        raise PreconditionError(
            "both models must be witness-rich to transport an isomorphism"
        )
    eta = {pid: theta(mb, [mapping[s] for s in nu(ma, pid)]) for pid in ma.ids()}
    if len(set(eta.values())) != len(eta):
        raise StructureError("induced prime map is not injective")
    verified = all(
        frozenset(eta[p] for p in s) == mapping[s] for s in va
    )
    return eta, verified
