"""Independent reference implementations used to cross-check the library.

Everything here trades speed for obviousness: quantifiers are spelled out as
loops, searches are exhaustive, and nothing shares code with the package
under test beyond the data types it consumes.  The two exceptions are
`v_by_lp` and `reay_by_lp`, which run the package's LP on every subset: they
check the union closures built around that LP, and the LP itself is checked
against `frac_phase_one`.  `reay_by_lp` reads its chain off
`longest_chain_by_dp`, the general longest-chain program, which shares
nothing with the package's graded cover walk, and `rank_by_height` reads V
off `v_by_lp`.  `circuits_by_steps` is the circuit walk with each
prefix's elimination rows kept, one `circuit_step` per decision, and
`chain_by_full_scan` the cover walk with no narrowing.
`prune_by_rank_and_span` is the positive-basis greedy testing rank and
positive spanning on every trial, by elimination alone.  Keep inputs tiny.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import gcd, lcm
from operator import mul, or_
from typing import NamedTuple

from radrank.cones import GeneratorSet, positively_spans_its_span
from radrank.errors import PreconditionError, check_budget
from radrank.ratlin import strict_zero_combination

# An inequality is (coeffs, rhs) meaning sum(c_i * x_i) <= rhs.


def _eliminate_last(ineqs):
    pos, neg, rest = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[-1]
        if c > 0:
            pos.append(([x / c for x in coeffs[:-1]], rhs / c))
        elif c < 0:
            neg.append(([x / -c for x in coeffs[:-1]], rhs / -c))
        else:
            rest.append((list(coeffs[:-1]), rhs))
    for pc, pr in pos:
        for nc, nr in neg:
            rest.append(([a + b for a, b in zip(pc, nc)], pr + nr))
    return rest


def _substitute(eqs, ineqs):
    """Solve each equation for a variable left in it and substitute that
    variable out of the other rows.  Returns the inequalities so rewritten,
    or None if some equation reduces to 0 = b with b != 0."""
    while eqs:
        coeffs, rhs = eqs.pop()
        j = next((j for j, a in enumerate(coeffs) if a), None)
        if j is None:
            if rhs:
                return None
            continue

        def sub(row):
            c, r = row
            if not c[j]:
                return row
            f = c[j] / coeffs[j]
            return [a - f * b for a, b in zip(c, coeffs)], r - f * rhs

        eqs = [sub(e) for e in eqs]
        ineqs = [sub(i) for i in ineqs]
    return ineqs


def fm_feasible(ineqs, nvars, eqs=()):
    """Feasibility of <= inequalities and = equations; verdict only.  The
    equations are substituted out first, then Fourier-Motzkin eliminates
    every variable from the inequalities left."""
    def exact(rows):
        return [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in rows]

    system = _substitute(exact(eqs), exact(ineqs))
    if system is None:
        return False
    for _ in range(nvars):
        system = _eliminate_last(system)
    return all(rhs >= 0 for _, rhs in system)


def _bounded_below(m, bound):
    """-z_j <= -bound for each of m variables, i.e. z_j >= bound."""
    return [
        ([Fraction(-1) if k == j else Fraction(0) for k in range(m)], -Fraction(bound))
        for j in range(m)
    ]


def fm_cone_member(v, gens):
    """Is v a nonnegative combination of gens?  Elimination route."""
    eqs = [([Fraction(g[d]) for g in gens], Fraction(v[d])) for d in range(len(v))]
    return fm_feasible(_bounded_below(len(gens), 0), len(gens), eqs)


def spans_by_negations(vecs):
    """Does the nonnegative hull of vecs equal their span?  Per generator:
    -v must be a nonnegative combination of vecs (vacuous for no vectors)."""
    return all(fm_cone_member([-Fraction(x) for x in v], vecs) for v in vecs)


def fm_strict_zero(gens):
    """Does some combination with every coefficient >= 1 reach zero?"""
    eqs = [([Fraction(g[d]) for g in gens], Fraction(0)) for d in range(len(gens[0]))]
    return fm_feasible(_bounded_below(len(gens), 1), len(gens), eqs)


def spans_with_rank(vectors, rank):
    """Do vectors have linear rank `rank` and positively span their span,
    that is, are they empty or does some combination with every coefficient
    >= 1 reach zero?  Elimination routes only."""
    return echelon_rank_transposed(vectors) == rank and (
        not vectors or fm_strict_zero(vectors)
    )


def prune_by_rank_and_span(vectors, rank):
    """The positive-basis greedy asking both questions on every trial: drop
    each vector, in order, whose removal leaves a set of linear rank `rank`
    that positively spans its span.  Returns the kept indices."""
    kept = list(range(len(vectors)))
    for i in range(len(vectors)):
        trial = [j for j in kept if j != i]
        if spans_with_rank([vectors[j] for j in trial], rank):
            kept = trial
    return kept


def frac_phase_one(columns, rhs, ties=None):
    """Phase-1 simplex over Fraction with Bland's rule: the rational tableau
    the library's integer solver must follow pivot for pivot.  Returns z >= 0
    with sum_j z_j * columns[j] = rhs, or None.  Each ratio-test tie is
    appended to the list `ties`, if one is given."""
    m = len(rhs)
    n = len(columns)
    tableau = []
    b = []
    for i in range(m):
        row = [Fraction(columns[j][i]) for j in range(n)]
        if rhs[i] < 0:
            row = [-a for a in row]
            b.append(-Fraction(rhs[i]))
        else:
            b.append(Fraction(rhs[i]))
        row.extend(Fraction(1) if i2 == i else Fraction(0) for i2 in range(m))
        tableau.append(row)
    basis = [n + i for i in range(m)]
    total = n + m
    cost = []
    for j in range(total):
        cj = Fraction(1) if j >= n else Fraction(0)
        cost.append(cj - sum(tableau[i][j] for i in range(m)))

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        ratio = None
        leave = None
        for i in range(m):
            t = tableau[i][enter]
            if t > 0:
                r = b[i] / t
                if ties is not None and r == ratio:
                    ties.append(r)
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        piv = tableau[leave][enter]
        tableau[leave] = [a / piv for a in tableau[leave]]
        b[leave] /= piv
        prow = tableau[leave]
        pb = b[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * p for a, p in zip(tableau[i], prow)]
                b[i] -= f * pb
        f = cost[enter]
        cost = [c - f * p for c, p in zip(cost, prow)]
        basis[leave] = enter

    if sum((b[i] for i in range(m) if basis[i] >= n), Fraction(0)) != 0:
        return None
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = b[i]
    return z


def frac_cone_member(v, gens, ties=None):
    """cone_member's answer, (ok, coefficients or None), by frac_phase_one."""
    z = frac_phase_one([list(g) for g in gens], list(v), ties)
    return (False, None) if z is None else (True, tuple(z))


def frac_strict_zero(gens, ties=None):
    """strict_zero_combination's answer by frac_phase_one on mu = lambda - 1."""
    target = [
        -sum((Fraction(g[d]) for g in gens), Fraction(0)) for d in range(len(gens[0]))
    ]
    z = frac_phase_one(gens, target, ties)
    return (False, None) if z is None else (True, tuple(Fraction(1) + c for c in z))


def frac_lp_feasible(rows, rhs, lower_bounds, ties=None):
    """lp_feasible's answer: shift each bounded x_j by its bound, split each
    free one into x+ - x-, and solve by frac_phase_one."""
    rows = [[Fraction(a) for a in row] for row in rows]
    shift = [Fraction(0) if lb is None else Fraction(lb) for lb in lower_bounds]
    adjusted = [
        Fraction(bi) - sum((a * s for a, s in zip(row, shift)), Fraction(0))
        for row, bi in zip(rows, rhs)
    ]
    columns, layout = [], []
    for j, lb in enumerate(lower_bounds):
        col = [row[j] for row in rows]
        columns.append(col)
        layout.append((j, 1))
        if lb is None:
            columns.append([-a for a in col])
            layout.append((j, -1))
    z = frac_phase_one(columns, adjusted, ties)
    if z is None:
        return False, None
    x = list(shift)
    for zj, (j, sign) in zip(z, layout):
        x[j] += sign * zj
    return True, tuple(x)


def int_exponent_zero(vectors, bound=24):
    """Is there an integer vector e with 1 <= e_i <= bound and sum e_i v_i = 0?

    Meet-in-the-middle over the two halves; exact on integer inputs.  This is
    the direct combinatorial reading of support membership, independent of
    any rational feasibility solver.
    """
    m = len(vectors)
    if m == 0:
        return False
    dim = len(vectors[0])
    half = m // 2
    left, right = vectors[:half], vectors[half:]

    def sums(vs):
        out = {}
        for es in product(range(1, bound + 1), repeat=len(vs)):
            total = tuple(
                sum(e * v[d] for e, v in zip(es, vs)) for d in range(dim)
            )
            out[total] = True
        return out

    left_sums = sums(left) if left else {tuple([0] * dim): True}
    for es in product(range(1, bound + 1), repeat=len(right)):
        total = tuple(sum(e * v[d] for e, v in zip(es, right)) for d in range(dim))
        if tuple(-t for t in total) in left_sums:
            return True
    return False


def echelon_rank_transposed(vectors):
    """Rank via forward elimination on the transpose (columns as rows)."""
    if not vectors:
        return 0
    dim = len(vectors[0])
    rows = [[Fraction(v[d]) for v in vectors] for d in range(dim)]
    rank = 0
    cols = len(vectors)
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def ordered_partitions(items):
    """Every ordered partition of items into nonempty blocks."""
    items = list(items)
    if not items:
        yield ()
        return
    rest = set(items)
    # choose the first block as any nonempty subset, recurse on the remainder
    for size in range(1, len(items) + 1):
        for block in combinations(items, size):
            remainder = rest - set(block)
            for tail in ordered_partitions(sorted(remainder)):
                yield (frozenset(block),) + tail


def max_reay_by_enumeration(labels, is_closed):
    """Maximum cardinality over all ordered partitions with closed prefixes.

    `is_closed` is the subspace test on label subsets; memoized here so the
    factorially many partitions stay cheap to check.
    """
    memo = {}

    def closed(s):
        got = memo.get(s)
        if got is None:
            got = is_closed(s)
            memo[s] = got
        return got

    best = 0
    for part in ordered_partitions(labels):
        prefix = frozenset()
        ok = True
        for block in part:
            prefix = prefix | block
            if not closed(prefix):
                ok = False
                break
        if ok and len(part) > best:
            best = len(part)
    return best


def raw_coprime(v_family, tup):
    """Literal finite-semigroup coprimality.

    For every member Z and every complete decomposition system (B_j) with
    Z = a_j | B_j for all j, each a_j must sit inside the union of the other
    B_i.  All three quantifiers are explicit loops.
    """
    fam = [frozenset(s) for s in v_family]
    tup = [frozenset(a) for a in tup]
    for z in fam:
        options = [[b for b in fam if a | b == z] for a in tup]
        if any(not opts for opts in options):
            continue
        for system in product(*options):
            for j, a in enumerate(tup):
                union_others = frozenset()
                for i, b in enumerate(system):
                    if i != j:
                        union_others |= b
                if not a <= union_others:
                    return False
    return True


def product_proper_by_raw(v_family, family):
    """No subfamily of size >= 2 raw-coprime (singletons pass vacuously)."""
    members = list(family)
    for size in range(2, len(members) + 1):
        for sub in combinations(members, size):
            if raw_coprime(v_family, sub):
                return False
    return True


def maximal_product_proper(v_family):
    """All maximal product-proper proper subfamilies, straight from the
    definitions.  Exponential twice over; only for the smallest models."""
    fam = [frozenset(s) for s in v_family]
    proper = []
    for size in range(1, len(fam)):
        for sub in combinations(fam, size):
            if product_proper_by_raw(fam, sub):
                proper.append(frozenset(sub))
    out = []
    for cand in proper:
        if not any(cand < other for other in proper):
            out.append(cand)
    return set(out)


def union_failures(v_family, phi):
    """Every pair (x, y) of members, in the family's order, that phi does not
    carry to a union: phi[x | y] != phi[x] | phi[y].  All |V|^2 pairs."""
    fam = [frozenset(s) for s in v_family]
    return [(x, y) for x in fam for y in fam if phi[x | y] != phi[x] | phi[y]]


def minimal_members(v_family):
    """The minimal members of a family that lists every proper subset of a
    member before it, as `enumerate_v` does, in the family's order: the
    members holding no minimal member met before them."""
    out = []
    for x in map(frozenset, v_family):
        if not any(c <= x for c in out):
            out.append(x)
    return out


def subset_unions(count, circuits):
    """A list `inside` of 2**count ints, `inside[mask]` being the union of
    the given masks that lie within mask: one subset-union pass per index
    over the list, each over whichever slices are fewer, strided by offset
    or contiguous."""
    size = 1 << count
    inside = [0] * size
    for c in circuits:
        inside[c] = c
    for i in range(count):
        # inside[mask] |= inside[mask without i] for each mask holding i
        low, step = 1 << i, 2 << i
        if low <= size // step:
            for o in range(low):
                high = slice(o + low, size, step)
                inside[high] = map(or_, inside[high], inside[o::step])
        else:
            for o in range(0, size, step):
                high = slice(o + low, o + step)
                inside[high] = map(or_, inside[high], inside[o:o + low])
    return inside


def iso_by_images(va, ids_a, vb, ids_b):
    """`iso_by_permutations`' answer by backtracking over the whole family,
    reaching a dozen primes.  The primes of ids_a are assigned in ascending
    order, each to the least free prime of ids_b that passes; images[s] is
    the image mask of the subset s of the assigned primes, and every grown
    entry is tested against vb.  Candidates are pruned by per-prime member
    counts by size, which any bijection carrying va onto vb keeps."""
    ids_a, ids_b = sorted(ids_a), sorted(ids_b)
    n = len(ids_a)
    set_a = {sum(1 << ids_a.index(p) for p in s) for s in va}
    set_b = {sum(1 << ids_b.index(p) for p in s) for s in vb}
    if n != len(ids_b) or len(set_a) != len(set_b):
        return None

    def signatures(masks):
        counts = [[0] * n for _ in range(n)]
        for mask in masks:
            for i in range(n):
                if mask >> i & 1:
                    counts[i][mask.bit_count() - 1] += 1
        return [tuple(c) for c in counts]

    sig_a, sig_b = signatures(set_a), signatures(set_b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    images = [0]

    def search(depth):
        if depth == n:
            return True
        for j in range(n):
            if images[-1] >> j & 1 or sig_b[j] != sig_a[depth]:
                continue
            grown = [x | 1 << j for x in images]
            if all(((1 << depth | s) in set_a) == (y in set_b) for s, y in enumerate(grown)):
                images.extend(grown)
                if search(depth + 1):
                    return True
                del images[1 << depth :]
        return False

    if not search(0):
        return None
    return {p: ids_b[images[1 << d].bit_length() - 1] for d, p in enumerate(ids_a)}


def iso_by_permutations(va, ids_a, vb, ids_b):
    """The least bijection ids_a -> ids_b (images listed in ascending order of
    ids_a, compared as tuples) carrying the family va exactly onto vb, or
    None.  Tries every permutation."""
    ids_a, ids_b = sorted(ids_a), sorted(ids_b)
    if len(ids_a) != len(ids_b):
        return None
    target = {frozenset(s) for s in vb}
    for perm in permutations(ids_b):
        eta = dict(zip(ids_a, perm))
        if {frozenset(eta[p] for p in s) for s in va} == target:
            return eta
    return None


def least_longest_chain(labels, is_closed):
    """Among the ordered partitions of labels whose prefix unions (the empty
    one included) all pass `is_closed`, one with the most blocks; ties go to
    the least chain of prefix unions, each compared as a sorted tuple.
    Returns that chain, from the empty set to all labels, or None.  The
    partitions are grown block by block, and a prefix union that fails
    `is_closed` ends every partition through it."""
    labels = sorted(labels)
    chains = []

    def grow(chain):
        rest = [l for l in labels if l not in chain[-1]]
        if not rest:
            chains.append(tuple(chain))
        for size in range(1, len(rest) + 1):
            for block in combinations(rest, size):
                step = chain[-1] | frozenset(block)
                if is_closed(step):
                    grow(chain + [step])

    if is_closed(frozenset()):
        grow([frozenset()])
    return min(chains, key=lambda c: (-len(c), [sorted(s) for s in c]), default=None)


def random_maximal_chain(family, rng):
    """A maximal chain of the set family from the empty set, a member, to
    the union of all members, also a member, stepping to a cover drawn by
    rng at each step.  The covers of a member are the members above it with
    no member strictly between, found by comparing every pair."""
    top = frozenset().union(*family)
    chain = [frozenset()]
    while chain[-1] != top:
        above = [t for t in family if chain[-1] < t]
        covers = [t for t in above if not any(u < t for u in above)]
        chain.append(rng.choice(sorted(covers, key=sorted)))
    return chain


def circuit_by_rref(vectors):
    """The positive circuit test by a Fraction RREF nullspace of the matrix
    whose columns are the vectors: one kernel basis vector per free column,
    with 1 at that column.  Returns the basis vector when there is exactly
    one and every entry is positive, else None."""
    count = len(vectors)
    dim = len(vectors[0]) if vectors else 0
    rows = [[Fraction(v[d]) for v in vectors] for d in range(dim)]
    pivots = []
    for col in range(count):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(count) if c not in pivots):
        x = [Fraction(0)] * count
        x[free] = Fraction(1)
        for r, col in enumerate(pivots):
            x[col] = -rows[r][free]
        basis.append(x)
    if len(basis) != 1 or not all(t > 0 for t in basis[0]):
        return None
    return tuple(basis[0])


def v_by_lp(m):
    """{support: principal?} for every nonempty subset of m's primes, ordered
    by (size, sorted ids), with one strict_zero_combination LP per subset."""
    ids = m.ids()
    return {
        frozenset(combo): strict_zero_combination([m.vector(p) for p in combo])[0]
        for size in range(1, len(ids) + 1)
        for combo in combinations(ids, size)
    }


def rank_by_height(m, rng):
    """The rank of m's class data as the number of primes minus the steps of
    a maximal chain of V plus the empty set, the chain drawn by rng (ROADMAP
    Fact B).  It applies when every prime lies in a member; V comes from
    `v_by_lp`, so nothing here is shared with `recover_rank`."""
    members = {s for s, principal in v_by_lp(m).items() if principal}
    chain = random_maximal_chain({frozenset()} | members, rng)
    if chain[-1] != frozenset(m.ids()):
        raise PreconditionError("some prime lies in no member")
    return len(m.ids()) - (len(chain) - 1)


def longest_chain_by_dp(labels, is_closed):
    """`longest_closed_chain`'s answer on any family of closed sets, graded
    or not: the longest strictly increasing chain of closed sets from {} to
    all labels, the lexicographically least (comparing sorted label tuples,
    front first) among maximum chains.  `is_closed` takes int masks whose
    bit i stands for sorted(labels)[i].  An O(3^len) dynamic program over
    the subset lattice; refuses more than WORK_BUDGET labels."""
    labels = sorted(labels)
    count = len(labels)
    check_budget(count, "the chain search over the labels")
    full = (1 << count) - 1

    def members(mask):
        return tuple(labels[i] for i in range(count) if mask >> i & 1)

    closed = [is_closed(mask) for mask in range(full + 1)]
    if not closed[0] or not closed[full]:
        raise PreconditionError("endpoints of the chain are not closed")

    def above(mask):
        """The closed proper supersets of mask; full is always one."""
        comp = full ^ mask
        sub = comp
        while sub:
            if closed[mask | sub]:
                yield mask | sub
            sub = (sub - 1) & comp

    # steps[mask] = longest chain length from a closed mask up to full;
    # proper supersets are larger numbers, so a descending sweep sees them first
    steps = [0] * (full + 1)
    for mask in range(full - 1, -1, -1):
        if closed[mask]:
            steps[mask] = 1 + max(steps[sup] for sup in above(mask))

    chain = [0]
    while chain[-1] != full:
        cur = chain[-1]
        nexts = (sup for sup in above(cur) if steps[sup] == steps[cur] - 1)
        chain.append(min(nexts, key=members))
    return tuple(frozenset(members(mask)) for mask in chain)


def reay_by_lp(gens):
    """`max_weak_reay`'s (s, blocks) with one positively_spans_its_span LP
    per subset as the closed-set predicate of `longest_chain_by_dp`."""
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet.from_vectors(gens)
    if len(gens) == 0:
        return 0, ()
    if not positively_spans_its_span(gens.vectors):
        raise PreconditionError("generators do not positively span their span")
    vecs = gens.vectors
    chain = longest_chain_by_dp(
        gens.labels,
        lambda mask: positively_spans_its_span(
            [v for i, v in enumerate(vecs) if mask >> i & 1]
        ),
    )
    blocks = tuple(cur - prev for prev, cur in zip(chain, chain[1:]))
    return len(blocks), blocks


class EliminationState(NamedTuple):
    """Fraction-free Gauss-Jordan elimination of linearly independent integer
    columns c_0, ..., c_(k-1) in Q^dim: row j of `inverse` takes c_j to
    `scale` and every other c_i to 0, and the dim - k rows of `annihilator`
    take every c_i to 0."""

    scale: int
    inverse: tuple[tuple[int, ...], ...]
    annihilator: tuple[tuple[int, ...], ...]


def elimination_state(dim):
    """The elimination state of no columns in Q^dim."""
    unit = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return EliminationState(1, (), unit)


def _primitive(row):
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def circuit_step(state, column, grow=True):
    """Add one column to the elimination of linearly independent columns,
    keeping the rows themselves.

    Returns (extended state, None) when the column is independent of the
    state's columns; (None, kernel) when it is a combination of them with
    every coefficient strictly negative, kernel being the primitive, strictly
    positive kernel vector of the state's columns followed by this one; and
    (None, None) otherwise.  With `grow` false an independent column gives
    (None, None) too, with no pivot."""
    scale, inverse, annihilator = state
    for p, row in enumerate(annihilator):
        alpha = sum(map(mul, row, column))
        if alpha:
            break
    else:
        # column = sum_j (inverse[j] . column / scale) c_j, a positive
        # circuit iff every coefficient is strictly negative
        kernel = []
        for row in inverse:
            x = sum(map(mul, row, column))
            if x * scale >= 0:
                return None, None
            kernel.append(-x)
        kernel.append(scale)
        g = gcd(*kernel) if scale > 0 else -gcd(*kernel)
        return None, tuple(x // g for x in kernel)
    if not grow:
        return None, None
    # pivot on annihilator row p, which takes the column to alpha != 0
    pivot = annihilator[p]
    grown = []
    for row in inverse:
        x = sum(map(mul, row, column))
        grown.append([alpha * a - x * b for a, b in zip(row, pivot)])
    grown.append([scale * b for b in pivot])
    g = gcd(alpha * scale, *chain.from_iterable(grown))
    rest = []
    for row in annihilator[p + 1:]:
        x = sum(map(mul, row, column))
        rest.append(
            tuple(_primitive([alpha * a - x * b for a, b in zip(row, pivot)]))
            if x else row
        )
    return EliminationState(
        alpha * scale // g,
        tuple(tuple(a // g for a in row) for row in grown),
        annihilator[:p] + tuple(rest),
    ), None


def independent_prefixes(vecs):
    """The linearly independent index tuples of vecs, the empty one first,
    by size and then in sorted index order, as the circuit walk meets
    them; a tuple is independent when its vectors' transposed echelon rank
    is its size."""
    found = [()]
    for size in range(1, len(vecs) + 1):
        grown = [
            combo for combo in combinations(range(len(vecs)), size)
            if echelon_rank_transposed([vecs[i] for i in combo]) == size
        ]
        if not grown:
            break
        found += grown
    return found


def decision_pairs(vecs):
    """The (prefix mask, index) pairs the circuit walk decides, in its
    order: each linearly independent prefix with each larger index."""
    return [
        (sum(1 << i for i in prefix), j)
        for prefix in independent_prefixes(vecs)
        for j in range(prefix[-1] + 1 if prefix else 0, len(vecs))
    ]


def circuits_by_steps(vecs):
    """`principal_table`'s circuits by the walk that keeps each prefix's
    rows: one `circuit_step` per (linearly independent prefix, larger
    index), breadth-first, so in (size, sorted index) order.  The vectors
    become integer columns by scaling each coordinate by the lcm of its
    denominators."""
    vecs = [[Fraction(x) for x in v] for v in vecs]
    count = len(vecs)
    rows = []
    for row in zip(*vecs):
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
    cols = list(zip(*rows)) if rows else [()] * count
    circuits = []
    level = [(0, -1, elimination_state(len(cols[0]) if cols else 0))]
    while level:
        longer = []
        for prefix, last, state in level:
            for i in range(last + 1, count):
                grown, kernel = circuit_step(state, cols[i])
                if kernel is not None:
                    circuits.append(prefix | 1 << i)
                elif grown is not None:
                    longer.append((prefix | 1 << i, i, grown))
        level = longer
    return tuple(circuits)


def chain_by_full_scan(labels, is_closed):
    """`longest_closed_chain`'s answer on a graded family by a full scan per
    step: every closed set of the ascending list is tested for covering the
    chain's top against every cover found before it."""
    labels = sorted(labels)
    count = len(labels)
    check_budget(count, "the chain search over the labels")
    full = (1 << count) - 1

    def members(mask):
        return tuple(labels[i] for i in range(count) if mask >> i & 1)

    ascending = [mask for mask in range(full + 1) if is_closed(mask)]
    if ascending[:1] != [0] or ascending[-1] != full:
        raise PreconditionError("endpoints of the chain are not closed")
    chain = [0]
    while chain[-1] != full:
        cur = chain[-1]
        covers = []
        for sup in ascending:
            if sup & cur == cur != sup and all(low & ~sup for low in covers):
                covers.append(sup)
        chain.append(min(covers, key=members))
    return tuple(frozenset(members(mask)) for mask in chain)
