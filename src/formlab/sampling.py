"""Deterministic sampling of forms and invertible integer matrices.

Every trial owns a generator derived by hashing (seed, trial), so parallel
or reordered evaluation reproduces the same draws.  Group elements are
products of integer shears and a permutation: unimodular, hence exactly
invertible with integer entries on both sides.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

from .exterior import Form, LinMap, normalize_index

__all__ = ["trial_rng", "random_form", "random_nonzero_form", "random_gl"]


def _hash64(seed: int, trial: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{trial}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(_hash64(seed, trial))


def random_form(n: int, k: int, bound: int, rng: random.Random) -> Form:
    """Form with coefficients uniform on the integers in [-bound, bound]."""
    terms: dict[tuple[int, ...], int] = {}
    for idx in combinations(range(1, n + 1), k):
        c = rng.randint(-bound, bound)
        if c:
            terms[idx] = c
    return Form(n, k, terms)


def random_nonzero_form(n: int, k: int, bound: int, rng: random.Random) -> Form:
    while True:
        phi = random_form(n, k, bound, rng)
        if not phi.is_zero:
            return phi


def random_gl(n: int, rng: random.Random, det_sign: int = 1) -> LinMap:
    """Integer matrix with determinant exactly +1 or -1.

    Built from 2n random shear operations followed by a row permutation;
    a final row negation fixes the requested sign.  Entries stay small.
    """
    if det_sign not in (1, -1):
        raise ValueError("det_sign must be +1 or -1")
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        ri, rj = rows[i], rows[j]
        for t in range(n):
            ri[t] += c * rj[t]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [rows[p] for p in perm]
    if normalize_index(perm)[1] != det_sign:
        rows[0] = [-x for x in rows[0]]
    g = LinMap(rows)
    assert g.det == det_sign
    return g
