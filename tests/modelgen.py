"""Seeded random generators for models, matrices, and scalings."""

import random
from fractions import Fraction

import radrank

SEED = 20260817


def _fewest_primes(r, min_primes):
    return max(min_primes, r + 1) if r else min_primes


def random_model(rng, min_primes=3, max_primes=8, ranks=(0, 1, 2, 3), prefix="p"):
    # only ranks that fit: rank r > 0 needs at least r + 1 primes
    r = rng.choice([k for k in ranks if _fewest_primes(k, min_primes) <= max_primes])
    n = rng.randrange(_fewest_primes(r, min_primes), max_primes + 1)
    pairs = [
        (
            f"{prefix}{i:02d}",
            tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r)
            ),
        )
        for i in range(n)
    ]
    return radrank.Model(r, pairs)


def random_spanning_model(rng, **kwargs):
    while True:
        m = random_model(rng, **kwargs)
        if radrank.validate(m).positively_spanning:
            return m


def random_invertible_matrix(rng, r):
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        if radrank.linear_rank(rows) == r:
            return rows


def random_positive_scales(rng, ids):
    return {pid: Fraction(rng.randint(1, 5), rng.randint(1, 5)) for pid in ids}


def zero_model(r, n, prefix="z"):
    zero = tuple(Fraction(0) for _ in range(r))
    return radrank.Model(r, [(f"{prefix}{i}", zero) for i in range(n)])


def relabeled(m, mapping):
    """Same class data under renamed primes."""
    return radrank.Model(
        m.ambient_rank, [(mapping[pid], v) for pid, v in m.primes]
    )


def fresh_rng(salt=0):
    return random.Random(SEED + salt)
