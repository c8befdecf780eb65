"""Shared helpers: independent oracles the library must agree with.

Everything here is deliberately naive (permutation expansions, plain
Gaussian elimination over Fraction) so that agreement with the fast paths
in the package is meaningful evidence.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm

import pytest

from formlab import Form, LinMap, Polyvector, interior, pullback
from formlab.classify import _LITERATURE
from formlab.exterior import contract_sign
from formlab.linalg import primitive_vector


def perm_sign(perm) -> int:
    """Sign via explicit inversion count."""
    s = 1
    perm = list(perm)
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                s = -s
    return s


def det_oracle(mat) -> Fraction:
    """Determinant by full permutation expansion (small matrices only)."""
    n = len(mat)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(mat[i][perm[i]])
        total += perm_sign(perm) * prod
    return total


def pfaffian_oracle(skew) -> Fraction:
    """Pfaffian by expansion along the first row; 0 for odd size, 1 for empty."""
    m = len(skew)
    if m % 2:
        return Fraction(0)
    if m == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, m):
        if skew[0][j]:
            rest = [c for c in range(1, m) if c != j]
            minor = [[skew[a][b] for b in rest] for a in rest]
            total += (-1) ** (j - 1) * Fraction(skew[0][j]) * pfaffian_oracle(minor)
    return total


def substitute_oracle(terms, rows, n):
    """Replace every e^i by sum_j rows[i-1][j-1] e^j, on Fraction throughout.

    An independent reference for exterior._substitute: the kernel's previous
    loop, kept on Fraction, with no subset table and no levels.  It runs over
    the old indices from n down to 1, each time scanning every term for the
    one in its last slot.  Old index i is renamed to n + i and always sits in
    the last slot when it is replaced, so inserting j at position p of the
    other m slots gives the sign (-1)^(m - p).
    """
    out = {tuple(n + i for i in idx): Fraction(c) for idx, c in terms.items()}
    for i in range(n, 0, -1):
        fresh = n + i
        hits = [idx for idx in out if idx and idx[-1] == fresh]
        row = [(j, Fraction(x)) for j, x in enumerate(rows[i - 1], 1) if x]
        for idx in hits:
            c = out.pop(idx)
            rest = idx[:-1]
            m = len(rest)
            for j, x in row:
                p = bisect_left(rest, j)
                if p < m and rest[p] == j:
                    continue
                tgt = rest[:p] + (j,) + rest[p:]
                acc = out.get(tgt, 0) + (-c * x if (m - p) % 2 else c * x)
                if acc:
                    out[tgt] = acc
                else:
                    out.pop(tgt, None)
    return out


def rref(rows, ncols):
    """Textbook Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    pivot_cols = []
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivot_cols


def rref_rank(rows, ncols) -> int:
    """Rank by textbook Gauss-Jordan over Fraction."""
    return len(rref(rows, ncols)[1])


def rank_mod_p_oracle(rows, ncols, p) -> int:
    """Rank modulo the prime p by textbook Gaussian elimination on residues."""
    mat = [[x % p for x in row] for row in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        for i in range(r + 1, len(mat)):
            f = mat[i][col] * inv % p
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def nullspace_oracle(rows, ncols):
    """(basis, free columns) read off the reduced row echelon form.

    The vector for free column f has a 1 at f, 0 at the other free columns and
    minus the reduced entries of column f at the pivot columns; it is then
    scaled to a primitive integer vector.
    """
    mat, pivot_cols = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, pc in enumerate(pivot_cols):
            x[pc] = -mat[r][f]
        basis.append(primitive_vector(x))
    return basis, free


def reduction_oracle(phi: Form) -> tuple[Form, LinMap]:
    """(phi_r, frame) by pulling phi back along a frame.

    The kernel of v -> i_v(phi) comes from textbook Gauss-Jordan on the
    contractions by each basis vector.  The frame's columns are the unit
    vectors of the pivot columns, then that kernel; frame^* phi must have
    no term past r, and it is phi_r on R^r.
    """
    n, k = phi.n, phi.k
    images = [interior(Polyvector.basis(n, (j,)), phi) for j in range(1, n + 1)]
    rows = [[x.coeff(I) for x in images] for I in combinations(range(1, n + 1), k - 1)]
    kernel, free = nullspace_oracle(rows, n)
    r = n - len(kernel)
    cols = [[int(i == c) for i in range(n)] for c in range(n) if c not in free]
    frame = LinMap.from_columns(cols + kernel)
    raw = pullback(frame, phi)
    assert all(idx[-1] <= r for idx in raw.terms), "support outside the complement"
    return Form(r, k, dict(raw.terms)), frame


def _scaled_terms(t):
    scale = lcm(*[c.denominator for c in t.terms.values()])
    return [(idx, int(c * scale)) for idx, c in t.terms.items()]


def contraction_rows_oracle(t, j):
    """Rows of X -> i_X(t) for X of degree j: every column J against every term.

    t is scaled to integers by the lcm of its denominators.  Columns are the
    degree-j multi-indices J in lexicographic order, and a term e^I meets
    column J through contract_sign when J is a subset of I.  Rows come in no
    fixed order, so compare them as a multiset.
    """
    n = t.n
    rows = {}
    for col, J in enumerate(combinations(range(1, n + 1), j)):
        for idx, c in _scaled_terms(t):
            hit = contract_sign(idx, J)
            if hit is not None:
                rest, sign = hit
                row = rows.setdefault(rest, {})
                row[col] = row.get(col, 0) + sign * c
    ncols = comb(n, j)
    return [[row.get(col, 0) for col in range(ncols)] for row in rows.values()], ncols


def stabilizer_rows_oracle(terms, n):
    """Rows of A -> infinitesimal_act(A, phi) from the integer terms of phi, by slot and gap.

    A[i][b] moves e^idx to e^(idx with b in slot p of i): zero when b is
    another index of idx, else b sorts into gap q of the rest with |p - q|
    transpositions.  Rows come in order of first use, term by term, slot by
    slot, gap by gap and b ascending, as _stabilizer_rows gives them.
    """
    cols = n * n
    rows = {}
    for idx, c in terms:
        for p, i in enumerate(idx):
            rest = idx[:p] + idx[p + 1 :]
            bounds = (0,) + rest + (n + 1,)
            col = (i - 1) * n - 1
            for q in range(len(idx)):
                head, tail = rest[:q], rest[q:]
                x = c if (p - q) % 2 else -c
                for b in range(bounds[q] + 1, bounds[q + 1]):
                    row = rows.setdefault(head + (b,) + tail, [0] * cols)
                    row[col + b] += x
    return list(rows.values()), cols


def rank_profile_oracle(phi: Form) -> tuple[int, ...]:
    """Rank of X -> i_X(phi) in every degree j = 1..k-1, with no symmetry used.

    Column J is i_{e_J}(phi) up to sign, taken one basis vector at a time
    through interior; the matrix is ranked by textbook Gauss-Jordan.
    """
    n, k = phi.n, phi.k
    ranks = []
    for j in range(1, k):
        rows = list(combinations(range(1, n + 1), k - j))
        cols = []
        for J in combinations(range(1, n + 1), j):
            image = phi
            for i in J:
                image = interior(Polyvector.basis(n, (i,)), image)
            cols.append([image.coeff(I) for I in rows])
        ranks.append(rref_rank(cols, len(rows)))
    return tuple(ranks)


def det_gauss(mat) -> Fraction:
    """Determinant by plain Gaussian elimination over Fraction.

    For minors too large for the permutation expansion (6 x 6 and up).
    """
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, len(a)):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def evaluate_form(phi: Form, vectors, det=det_oracle) -> Fraction:
    """phi(v_1, ..., v_k) as a sum of coefficient times minor determinants.

    vectors are coordinate lists; entry (s, t) of the minor for index I is
    the i_s-th coordinate of v_t.
    """
    assert len(vectors) == phi.k
    total = Fraction(0)
    for idx, c in phi.terms.items():
        minor = [[Fraction(v[i - 1]) for v in vectors] for i in idx]
        total += c * det(minor)
    return total


def pairing(phi: Form, xi: Polyvector) -> Fraction:
    """Natural pairing of a form with a polyvector of the same degree."""
    assert phi.n == xi.n and phi.k == xi.k
    return sum((c * xi.terms.get(idx, Fraction(0)) for idx, c in phi.terms.items()), Fraction(0))


def killing_gram_oracle(S):
    """Gram matrix tr(ad X_t ad X_u) of the LinMaps in S.basis, over Fraction.

    Each bracket [X_t, X_u] is solved for its coordinates on its own: the
    basis is restricted to the coordinates where textbook Gauss-Jordan finds
    its pivots, that s x s block is inverted, and the solution is checked
    against every entry of the bracket, so the bracket must lie in the span.
    Nothing here reads the free spots of the package's basis.  Zero entries
    are skipped throughout, which keeps s = 48 within seconds.
    """
    mats = [X.entries for X in S.basis]
    s, n = len(mats), S.n
    flat = [[x for row in X for x in row] for X in mats]
    _, pivots = rref(flat, n * n)
    assert len(pivots) == s
    block = [
        [flat[v][p] for v in range(s)] + [int(i == j) for j in range(s)]
        for i, p in enumerate(pivots)
    ]
    reduced, _ = rref(block, 2 * s)
    inv_cols = [[(a, row[s + i]) for a, row in enumerate(reduced) if row[s + i]] for i in range(s)]
    support = [[(p, x) for p, x in enumerate(f) if x] for f in flat]
    nonzero = [[[(m, x) for m, x in enumerate(row) if x] for row in X] for X in mats]

    def product(t, u):
        out = [Fraction(0)] * (n * n)
        B = mats[u]
        for i, row in enumerate(nonzero[t]):
            for m, x in row:
                for j, y in enumerate(B[m]):
                    if y:
                        out[i * n + j] += x * y
        return out

    def coordinates(b):
        c = [Fraction(0)] * s
        for i, p in enumerate(pivots):
            if b[p]:
                for a, x in inv_cols[i]:
                    c[a] += x * b[p]
        back = [Fraction(0)] * (n * n)
        for v, cv in enumerate(c):
            if cv:
                for p, x in support[v]:
                    back[p] += cv * x
        assert back == b
        return c

    # ad[t][(v, u)] = coefficient of X_v in [X_t, X_u], nonzeros only
    ad = [{} for _ in range(s)]
    for t in range(s):
        for u in range(t + 1, s):
            bracket = [x - y for x, y in zip(product(t, u), product(u, t))]
            for v, c in enumerate(coordinates(bracket)):
                if c:
                    ad[t][v, u] = c
                    ad[u][v, t] = -c
    return [
        [
            sum((x * ad[u].get((w, v), 0) for (v, w), x in ad[t].items()), Fraction(0))
            for u in range(s)
        ]
        for t in range(s)
    ]


def inertia_oracle(sym) -> tuple[int, int, int]:
    """Inertia by symmetric congruence elimination over Fraction on every row.

    Zero rows and zero entries go through the elimination like any other, so
    this is the reference for inertia_fraction, which skips them.
    """
    S = [[Fraction(x) for x in row] for row in sym]
    active = list(range(len(S)))
    p = q = 0
    while active:
        piv = next((i for i in active if S[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if i < j and S[i][j]), None)
            if pair is None:
                return p, q, len(active)
            i, j = pair
            for c in active:
                S[i][c] += S[j][c]
            for r in active:
                S[r][i] += S[r][j]
            piv = i
        d = S[piv][piv]
        if d > 0:
            p += 1
        else:
            q += 1
        active.remove(piv)
        for r in active:
            f = S[r][piv] / d
            for c in active:
                S[r][c] -= f * S[piv][c]
    return p, q, 0


def literature_form(name: str) -> Form:
    """The representative of the literature catalog entry called name."""
    for (n, k), rows in _LITERATURE.items():
        for entry, terms, _note in rows:
            if entry == name:
                return Form(n, k, terms)
    raise KeyError(name)


# The Cartan 3-forms K(X, [Y, Z]) of the three real forms of sl(3, C), with
# K(X, Y) = 6 tr(XY), on the bases that test_invariants builds them from:
# each is fixed by its algebra acting on R^8 by the adjoint representation,
# and they represent the three open GL(8, R)-orbits on 3-forms.
CARTAN_FORMS = {
    "sl3R": {(1, 3, 6): 12, (1, 4, 7): 6, (1, 5, 8): -6, (2, 3, 6): -6,
             (2, 4, 7): 6, (2, 5, 8): 12, (3, 5, 7): 6, (4, 6, 8): -6},
    "su21": {(1, 3, 4): -24, (1, 5, 6): 12, (1, 7, 8): -12, (2, 3, 4): 12, (2, 5, 6): 12,
             (2, 7, 8): 24, (3, 5, 7): -12, (3, 6, 8): -12, (4, 5, 8): 12, (4, 6, 7): -12},
    "su3": {(1, 3, 4): -24, (1, 5, 6): -12, (1, 7, 8): 12, (2, 3, 4): 12, (2, 5, 6): -12,
            (2, 7, 8): -24, (3, 5, 7): 12, (3, 6, 8): 12, (4, 5, 8): -12, (4, 6, 7): 12},
}


def cartan_form(name: str) -> Form:
    return Form(8, 3, CARTAN_FORMS[name])


def random_int_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


@pytest.fixture
def rng():
    import random

    return random.Random(20260818)
