"""Basis-independent invariants of a single form or polyvector.

Everything here reduces to exact integer or rational linear algebra: the
contraction operator L_phi, its kernel, the stabilizer algebra inside
gl(n, Q), and the length/sign data of codimension-two forms.

The fingerprint packs three exact invariants: the contraction rank profile,
the stabilizer dimension and the Killing signature.  A form of rank r < n
is fingerprinted on its rank-r reduction phi_r, and the rank-r lift
(fingerprint, which proves it) carries phi_r's fingerprint to R^n.  Four
kinds of phi_r get their fingerprint in closed form, with no stabilizer
solved (_closed_form): decomposable forms, full-rank (n-2)-forms, 2-forms of
rank > 2, and 3-forms of rank 6, 7 or 8 that are stable.  One integer kernel
builds the 5-forms i_v phi ^ phi on integer coefficients, and from them
Hitchin's quartic lambda (rank 6), Bryant's bilinear form B (rank 7) and a
sextic bilinear form Q (rank 8).  Each detects stability itself
(lambda != 0, det B != 0, det Q != 0) and names the orbit by a sign or an
inertia.  orbit_dimension and is_stable take the same reduction and closed
forms, and build no Killing form.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from operator import mul

from .exterior import (
    DegreeError,
    DimensionMismatch,
    Form,
    FormError,
    LinMap,
    MultiIndex,
    Polyvector,
    VolumeForm,
    _index,
    _inserted,
    _mask,
    act,
    contract_sign,
    normalize_index,
)
from .linalg import (
    Scalar,
    inertia_fraction,
    nullspace_rows,
    primitive_vector,
    rank_rows,
    skew_pairs,
)

__all__ = [
    "rank",
    "kernel_vectors",
    "is_multisymplectic",
    "Reduction",
    "reduce_form",
    "infinitesimal_act",
    "StabAlgebra",
    "stabilizer_algebra",
    "orbit_dimension",
    "is_stable",
    "LengthSign",
    "length_and_sign",
    "NilpotencyWitness",
    "nilpotency_witness_degenerate",
    "orientation_reversing_stabilizer_witness",
]


# Row tables of the contraction and stabilizer systems, shared by every
# call.  A row of either system is numbered by the bitmask of its
# multi-index (exterior._mask), and an entry (row, column, sign) says that
# a term c e^idx adds sign * c to that row at that column.
#
# _CONTRACTIONS[n, k, j][idx] holds, for each degree-j subset J of idx in
# lexicographic order, the row of the rest of idx, the column of J among
# the degree-j multi-indices in lexicographic order and the sign of
# i_{e_J} e^idx.  _STABILIZERS[n][idx] holds the entries of
# infinitesimal_act(E_ib, e^idx) for the matrix units E_ib of gl(n), in
# the order _stabilizer_entries gives.
#
# The entries of an idx are one flat tuple, three ints an entry: a tuple
# per entry held 2.6 times the memory over 100 census operations and their
# checks, and put the census peak RSS 0.27 MB above that of the per-call
# loops it replaced, for 3% more throughput.  They are made the first time
# their idx is met, so a table holds at most C(n, k) of them for the degree
# k of its terms, and a sparse form on R^12 pays only for its own terms.
# Every value is a function of its key alone, so the tables cache no
# result, and a race between threads can only repeat a fill, never change
# an answer.
Entries = tuple[int, ...]
_CONTRACTIONS: dict[tuple[int, int, int], dict[MultiIndex, Entries]] = {}
_STABILIZERS: dict[int, dict[MultiIndex, Entries]] = {}


@lru_cache(maxsize=None)
def _subset_columns(n: int, j: int) -> dict[MultiIndex, int]:
    """Position of each degree-j multi-index on R^n in lexicographic order."""
    return {J: c for c, J in enumerate(combinations(range(1, n + 1), j))}


def _contraction_entries(idx: MultiIndex, n: int, j: int) -> Entries:
    col_of = _subset_columns(n, j)
    entries = []
    for sub in combinations(idx, j):
        rest, sign = contract_sign(idx, sub)
        entries += _mask(rest), col_of[sub], sign
    return tuple(entries)


def _stabilizer_entries(idx: MultiIndex, n: int) -> Entries:
    """A[i][b] on e^idx: column (i-1)*n + (b-1), row e^(idx with b in slot p of i).

    Moving b from slot p to the last of the k slots costs (-1)^(k-1-p),
    inserting it into the rest is exterior._inserted (zero when b is another
    index of idx), and the action adds one more minus.  Slots p, then b
    ascending.
    """
    k = len(idx)
    full = _mask(idx)
    entries = []
    for p, i in enumerate(idx):
        without = full ^ (1 << (i - 1))
        col = (i - 1) * n - 1
        sign = -1 if (k - p) % 2 else 1
        for b in range(1, n + 1):
            v = _inserted(without, b)
            if v:
                entries += abs(v), col + b, sign if v > 0 else -sign
    return tuple(entries)


def _table_rows(terms, table, fill, ncols: int, *args) -> dict[int, list]:
    """The rows that terms make through a row table, by row number, in order of first use.

    An idx missing from the table is filled by fill(idx, *args) first.
    """
    rows: dict[int, list] = {}
    for idx, c in terms:
        entries = table.get(idx)
        if entries is None:
            entries = table[idx] = fill(idx, *args)
        it = iter(entries)
        for key, col, sign in zip(it, it, it):
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * ncols
            row[col] += sign * c
    return rows


def _contraction_rows(t, j: int = 1) -> tuple[list[list[int]], int]:
    """Integer matrix of X -> i_X(t) for X of degree j, and its column count.

    Columns are the degree-j multi-indices in lexicographic order; rows are
    the degree k-j multi-indices that actually occur, in order of first use
    (rank and nullspace do not depend on it).  It is built on t.nums: the
    positive scale t.den moves neither the rank nor the kernel.  Each term
    reads its entries from the table of (n, k, j) in _CONTRACTIONS, filled
    the first time the term's index is met, so the table never holds more
    than C(n, k) entry tuples.  The same construction serves forms and
    polyvectors; only the variance of the answer differs.
    """
    n, k = t.n, t.k
    ncols = comb(n, j)
    table = _CONTRACTIONS.setdefault((n, k, j), {})
    rows = _table_rows(t.nums.items(), table, _contraction_entries, ncols, n, j)
    return list(rows.values()), ncols


def rank(t) -> int:
    """Dimension of the image of v -> i_v(t); the support dimension of t."""
    if t.k < 1:
        raise DegreeError("rank needs degree at least 1")
    return rank_rows(*_contraction_rows(t))


def _kernel_basis(t) -> tuple[list[list[int]], list[int]]:
    return nullspace_rows(*_contraction_rows(t))


def kernel_vectors(phi: Form) -> list[Polyvector]:
    """Basis of {v : i_v(phi) = 0}; size n - rank(phi)."""
    if phi.k < 1:
        raise DegreeError("kernel_vectors needs degree at least 1")
    basis, _ = _kernel_basis(phi)
    return [Polyvector.from_coords(b) for b in basis]


def is_multisymplectic(phi: Form) -> bool:
    return rank(phi) == phi.n


def _kernel_reflection(u: list[Scalar]) -> LinMap:
    """g = I - 2 u e_f^T / u_f, f the last nonzero coordinate of a kernel vector u.

    i_u phi = 0 gives g^* phi = phi; g^2 = I, so act(g, phi) = phi, and
    det g = -1.  A kernel vector of nullspace_rows lives on the pivot columns
    plus its own free column f, and a Reduction's frame puts the pivot
    coordinate vectors before the kernel.  So for u the frame's column r + 1,
    every other column vanishes at f, row r + 1 of frame^{-1} is e_f^T / u_f,
    and g is frame . diag(1^r, -1, 1, ...) . frame^{-1} exactly.
    """
    u = primitive_vector(u)  # g depends only on the direction of u
    n = len(u)
    f = max(i for i in range(n) if u[i])
    rows = [[u[f] * (i == j) - 2 * u[i] * (j == f) for j in range(n)] for i in range(n)]
    return LinMap._from_ints(rows, u[f], Fraction(-1))


@dataclass(frozen=True)
class Reduction:
    """A form rewritten on the minimal dimension it actually uses.

    kernel is the basis of ker L_phi that nullspace_rows returns, each vector
    ending at its own free column; reduced is phi restricted to the other r
    coordinates, relabeled 1..r.  frame, derived on demand, has their unit
    vectors and then the kernel as columns; reconstruct() inverts exactly.
    """

    r: int
    reduced: Form
    kernel: tuple[tuple[int, ...], ...]
    original_n: int

    @property
    def frame(self) -> LinMap:
        n = self.original_n
        free = {max(i for i in range(n) if v[i]) for v in self.kernel}
        cols = [[int(i == c) for i in range(n)] for c in range(n) if c not in free]
        return LinMap.from_columns(cols + list(self.kernel))

    def reconstruct(self) -> Form:
        x = self.reduced
        return act(self.frame, Form._from_clean(self.original_n, x.k, dict(x.nums), x.den))


def reduce_form(phi: Form) -> Reduction:
    """Split off ker L_phi and restrict phi to the pivot coordinates c_1 < ... < c_r.

    One nullspace solve of the degree-1 contraction system gives r and the
    kernel.  Column t <= r of the frame is e_{c_t}, so frame^* phi is phi's
    own coefficient at (c_{t_1}, ..., c_{t_k}) on (t_1, ..., t_k), and has no
    term past r exactly when every kernel vector contracts phi to zero, which
    is checked on the integer rows.  A zero form has r = 0 and kernel e_1..e_n.
    """
    if phi.k < 1:
        raise DegreeError("reduce needs degree at least 1")
    n = phi.n
    rows, ncols = _contraction_rows(phi)
    kernel, free = nullspace_rows(rows, ncols)
    if any(sum(map(mul, v, row)) for v in kernel for row in rows):
        raise AssertionError("a kernel vector does not contract phi to zero")
    r = n - len(kernel)
    reduced = phi
    if r < n:
        pos = {c + 1: t for t, c in enumerate(sorted(set(range(n)).difference(free)), 1)}
        kept = [(idx, c) for idx, c in phi.nums.items() if pos.keys() >= set(idx)]
        # from a list, not a generator: see _substitute
        kept = {tuple([pos[i] for i in idx]): c for idx, c in kept}
        reduced = Form._from_clean(r, phi.k, kept, phi.den)
    return Reduction(r=r, reduced=reduced, kernel=tuple(map(tuple, kernel)), original_n=n)


def infinitesimal_act(A: LinMap, phi: Form) -> Form:
    """Derivative at the identity of t -> act(exp(tA), phi).

    On a basis form this is minus the sum over slots of substituting A into
    that slot; A = Id gives -k * phi.  The row of each multi-index in the
    stabilizer system of phi (_stabilizer_rows, on phi.nums) holds its
    coefficient as a dot product with the int rows of A, over phi.den * A.den.
    """
    if A.n != phi.n:
        raise FormError(f"dimension {A.n} != {phi.n}")
    n = phi.n
    flat = [a for row in A.rows for a in row]
    table = _STABILIZERS.setdefault(n, {})
    rows = _table_rows(phi.nums.items(), table, _stabilizer_entries, n * n, n)
    dots = {_index(key): c for key, r in rows.items() if (c := sum(map(mul, r, flat)))}
    return Form._from_clean(n, phi.k, dots, phi.den * A.den)


@dataclass(frozen=True)
class StabAlgebra:
    """Annihilator of phi inside gl(n, Q): all A with infinitesimal_act(A, phi) = 0.

    The basis is stored once, in _flat: primitive integer matrices flattened
    row-major to length n*n.  Vector t is supported on the pivot coordinates
    and on exactly one free coordinate, _free[t], so coordinates in this basis
    can be read off at the free coordinates.  `basis` builds the same
    matrices as LinMaps each time it is read.
    """

    n: int
    dim: int
    _flat: tuple[tuple[int, ...], ...] = field(repr=False)
    _free: tuple[int, ...] = field(repr=False)

    @property
    def basis(self) -> tuple[LinMap, ...]:
        n = self.n
        return tuple(LinMap([v[r * n : (r + 1) * n] for r in range(n)]) for v in self._flat)


def _stabilizer_rows(terms: Iterable[tuple[MultiIndex, int]], n: int) -> tuple[list[list[int]], int]:
    """Integer matrix of A -> infinitesimal_act(A, phi) on R^n, and its column count n^2.

    terms are the items of phi.nums.  Column (i-1)*n + (b-1) is the entry
    A[i][b]; rows are the multi-indices that occur, in order of first use.
    Each term reads its entries from the table of n in _STABILIZERS, filled
    the first time the term's index is met, so the table holds at most
    C(n, k) entry tuples of degree k, of k(n - k + 1) entries each.
    """
    cols = n * n
    rows = _table_rows(terms, _STABILIZERS.setdefault(n, {}), _stabilizer_entries, cols, n)
    return list(rows.values()), cols


def stabilizer_algebra(phi: Form) -> StabAlgebra:
    """Nullspace of A -> infinitesimal_act(A, phi), built on phi.nums."""
    n = phi.n
    flat, free = nullspace_rows(*_stabilizer_rows(phi.nums.items(), n))
    return StabAlgebra(n=n, dim=len(flat), _flat=tuple(map(tuple, flat)), _free=tuple(free))


@dataclass(frozen=True)
class Fingerprint:
    """Exact orbit invariants used to discriminate forms.

    rank_profile lists the ranks of the contraction maps from degree j
    polyvectors, j = 1..k-1; stab_dim is the stabilizer algebra dimension;
    killing_signature is the inertia (p, q, z) of its Killing form.  The
    triple is invariant under the group action but deliberately incomplete:
    distinct orbits may collide.
    """

    rank_profile: tuple[int, ...]
    stab_dim: int
    killing_signature: tuple[int, int, int]

    def __str__(self) -> str:
        rp = ",".join(map(str, self.rank_profile))
        p, q, z = self.killing_signature
        return f"profile=({rp}) stab={self.stab_dim} killing=({p},{q},{z})"


def rank_profile(phi: Form) -> tuple[int, ...]:
    """Ranks of the maps (degree j polyvectors) -> (degree k-j forms), j < k.

    Only j <= k/2 is solved; _mirror fills in the rest.
    """
    k = phi.k
    return _mirror([rank_rows(*_contraction_rows(phi, j)) for j in range(1, k // 2 + 1)], k)


def _mirror(half: list[int], k: int) -> tuple[int, ...]:
    """The rank profile j = 1..k-1 from its ranks at j = 1..k/2.

    The maps from degree j and from degree k - j are transposes of one
    pairing, (X, Y) -> phi(X ^ Y), so their ranks agree.
    """
    return tuple(half[min(j, k - j) - 1] for j in range(1, k))


def killing_signature(S: StabAlgebra) -> tuple[int, int, int]:
    """Inertia of K(A, B) = tr(ad_A ad_B) on the span of the basis.

    Structure constants are read off at the free spots of the nullspace basis,
    one dot product of a row and a column per pair of basis elements that meet
    there, and scaled to integers so the Gram matrix stays integral; positive
    scaling does not move inertia.  Each trace gathers only the nonzeros of
    one ad against the other (_killing_gram).
    """
    if S.dim == 0:
        return (0, 0, 0)
    return inertia_fraction(_killing_gram(S.n, S._flat, S._free)[0])


def _killing_gram(
    n: int, flats: tuple[tuple[int, ...], ...], free: tuple[int, ...]
) -> tuple[list[list[int]], int]:
    """Integer Gram matrix scale^2 * tr(ad X_t ad X_u) of the stored basis, and scale.

    Basis element v is the only one nonzero at its free spot (i, j), so the
    v-coordinate of [X_t, X_u] is its (i, j) entry over the pivot of v:
    X_t[i,:].X_u[:,j] - X_u[i,:].X_t[:,j].  Per spot, only elements with a
    nonzero row i meet elements with a nonzero column j; each product is a
    C-level dot product, and antisymmetry gives [X_u, X_t] for free.  Each
    ad X_t keeps only its nonzeros, which are gathered against the flat
    transpose of ad X_u, so the trace costs one product per nonzero.
    """
    s = len(flats)
    piv = [flats[t][free[t]] for t in range(s)]
    scale = lcm(*(abs(p) for p in piv))
    rows = [[v[r * n : (r + 1) * n] for r in range(n)] for v in flats]
    cols = [[v[c::n] for c in range(n)] for v in flats]
    with_row = [[t for t in range(s) if any(rows[t][r])] for r in range(n)]
    with_col = [[t for t in range(s) if any(cols[t][c])] for c in range(n)]
    # ad X_t as parallel lists: keys[t] holds v*s + u for a nonzero entry
    # ad_t[v][u] = scale * (coefficient of basis v in [X_t, X_u]), vals[t]
    # the value.  Keys are taken from `position`, so every ad that has an
    # entry at v*s + u shares one int object for it.
    position = list(range(s * s))
    keys: list[list[int]] = [[] for _ in range(s)]
    vals: list[list[int]] = [[] for _ in range(s)]
    for v, f in enumerate(free):
        i, j = divmod(f, n)
        m = scale // piv[v]
        col_j = [(u, cols[u][j]) for u in with_col[j]]
        dots: dict[tuple[int, int], int] = {}
        for t in with_row[i]:
            row = rows[t][i]
            for u, col in col_j:
                if u != t:
                    d = sum(map(mul, row, col))
                    if d:
                        dots[t, u] = d
        base = v * s
        for (t, u), d in dots.items():
            back = dots.get((u, t))
            if back is not None:
                if t > u:
                    continue
                d -= back
                if not d:
                    continue
            c = m * d
            keys[t].append(position[base + u])
            vals[t].append(c)
            keys[u].append(position[base + t])
            vals[u].append(-c)
    gram = [[0] * s for _ in range(s)]
    for u in range(s):
        transposed = [0] * (s * s)
        for p, x in zip(keys[u], vals[u]):
            v, w = divmod(p, s)
            transposed[w * s + v] = x
        gather = transposed.__getitem__
        for t in range(u + 1):
            total = sum(map(mul, vals[t], map(gather, keys[t])))
            gram[t][u] = total
            gram[u][t] = total
    return gram, scale


# Parallel lists of pair positions, triple positions and signs.
Splits = tuple[list[int], list[int], list[int]]


@lru_cache(maxsize=None)
def _top_pairings(r: int) -> tuple[Splits, ...]:
    """Index tables for 3-forms on R^r, with pairs and triples at their _subset_columns.

    For each (r-5)-index s, in lexicographic order, the pairs p and triples
    t that split the rest of 1..r (as positions) with the signs of
    e^s ^ e^p ^ e^t on e^{1..r}.
    """
    full = range(1, r + 1)
    pair_at, triple_at = _subset_columns(r, 2), _subset_columns(r, 3)
    table = []
    for s in combinations(full, r - 5):
        rest = [i for i in full if i not in s]
        splits = [(p, tuple(i for i in rest if i not in p)) for p in combinations(rest, 2)]
        table.append(
            (
                [pair_at[p] for p, _ in splits],
                [triple_at[t] for _, t in splits],
                [normalize_index(s + p + t)[1] for p, t in splits],
            )
        )
    return tuple(table)


def _psi_duals(
    terms: Iterable[tuple[MultiIndex, int]], r: int
) -> tuple[list[list[int]], list[list[int]]]:
    """i_{e_w} phi and the top pairings of psi_w = i_{e_w} phi ^ phi, w = 1..r.

    terms are the integer terms of a 3-form phi on R^r, r = 6, 7 or 8.  The
    first list holds the coefficients of the 2-forms i_{e_w} phi, pairs in
    lexicographic order; the second the coefficient of e^s ^ psi_w on
    e^{1..r} for each (r-5)-index s, in lexicographic order.  At r = 6 these
    are the coordinates, with their signs, of the vector that poincare_inv
    dualizes psi_w to.
    """
    pair_at, triple_at = _subset_columns(r, 2), _subset_columns(r, 3)
    table = _top_pairings(r)
    cont = [[0] * len(pair_at) for _ in range(r)]
    coeff = [0] * len(triple_at)
    for (a, b, c), x in terms:
        cont[a - 1][pair_at[b, c]] = x
        cont[b - 1][pair_at[a, c]] = -x
        cont[c - 1][pair_at[a, b]] = x
        coeff[triple_at[a, b, c]] = x
    # psi_w on e^s: sum of sign * (i_{e_w} phi)_p * phi_t over the splits (p, t)
    signed = [[sign * coeff[t] for t, sign in zip(ts, signs)] for _, ts, signs in table]
    duals = [
        [sum(map(mul, map(row.__getitem__, ps), y)) for (ps, _, _), y in zip(table, signed)]
        for row in cont
    ]
    return cont, duals


@lru_cache(maxsize=None)
def _vector_wedges(r: int) -> tuple[Splits, ...]:
    """e^u ^ e^p on R^r for u = 1..r: the pairs p without u, the triples s
    that u and p make (as positions), and the signs of e^u ^ e^p = sign e^s."""
    pair_at, triple_at = _subset_columns(r, 2), _subset_columns(r, 3)
    table = []
    for u in range(1, r + 1):
        wedges = [(p, *normalize_index((u,) + p)) for p in pair_at if u not in p]
        table.append(
            (
                [pair_at[p] for p, _, _ in wedges],
                [triple_at[s] for _, s, _ in wedges],
                [sign for _, _, sign in wedges],
            )
        )
    return tuple(table)


def _sextic_gram(terms: Iterable[tuple[MultiIndex, int]]) -> list[list[int]]:
    """Q[x][y] = tr(M_x M_y) for the integer terms of a 3-form on R^8.

    M_x[u][z] is the coefficient of e^u ^ i_{e_z} phi ^ psi_x on e^{1..8}:
    column z of M_x is, with the sign of poincare_inv, the vector dual to
    the 7-form i_{e_x} phi ^ i_{e_z} phi ^ phi.  2-forms commute, so
    M_x[u][z] = M_z[u][x] and only x <= z is summed.  Q is symmetric and
    sextic in the coefficients.
    """
    cont, duals = _psi_duals(terms, 8)
    table = _vector_wedges(8)
    # (i_{e_z} phi)_p and sign * (psi_x dual)_{u+p} over the pairs p without u
    picked = [[[row[p] for p in ps] for ps, _, _ in table] for row in cont]
    signed = [
        [[sign * dual[s] for s, sign in zip(ss, signs)] for _, ss, signs in table] for dual in duals
    ]
    # M[x][z * 8 + u] = M_x[u][z]
    M = [[0] * 64 for _ in range(8)]
    for x in range(8):
        for z in range(x, 8):
            for u in range(8):
                M[x][z * 8 + u] = M[z][x * 8 + u] = sum(map(mul, signed[x][u], picked[z][u]))
    transposed = [[y for u in range(8) for y in row[u::8]] for row in M]
    Q = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(x + 1):
            Q[x][y] = Q[y][x] = sum(map(mul, M[x], transposed[y]))
    return Q


def _hitchin_trace(terms: Iterable[tuple[MultiIndex, int]]) -> int:
    """tr K^2 for the integer terms of a 3-form on R^6; 6 lambda up to a positive factor.

    K[w][u] is the coefficient of e^u ^ psi_w on e^{1..6}.
    """
    _, K = _psi_duals(terms, 6)
    return sum(K[w][u] * K[u][w] for w in range(6) for u in range(6))


def _bryant_gram(terms: Iterable[tuple[MultiIndex, int]]) -> list[list[int]]:
    """B[v][w], the coefficient of i_v phi ^ i_w phi ^ phi on e^{1..7}, for a 3-form on R^7.

    2-forms commute, so B is symmetric and only v <= w is summed.
    """
    cont, duals = _psi_duals(terms, 7)
    B = [[0] * 7 for _ in range(7)]
    for v in range(7):
        for w in range(v, 7):
            B[v][w] = B[w][v] = sum(map(mul, cont[v], duals[w]))
    return B


# The Killing inertia of stab(phi) for each inertia of Q that an open orbit
# of 3-forms on R^8 has, read off the Cartan forms of sl(3, R), su(2, 1) and
# su(3) (see fingerprint).
_SEXTIC_KILLING = {(5, 3, 0): (5, 3, 0), (4, 4, 0): (4, 4, 0), (8, 0, 0): (0, 8, 0)}


def _stable_three_form(phi: Form) -> Fingerprint | None:
    """The fingerprint of a stable 3-form on R^6, R^7 or R^8.

    None when phi is not stable: lambda = 0 on R^6, det B = 0 on R^7, and on
    R^8 a Q of any inertia but the three of the open orbits, all of which
    have det Q != 0 (det Q = 0 is exactly the unstable set; the proof is in
    fingerprint).  A positive scale c of the terms multiplies tr K^2 by
    c^4, B by c^3 and Q by c^6, so neither the sign nor the inertia moves.
    """
    terms = phi.nums.items()
    if phi.n == 6:
        t = _hitchin_trace(terms)
        if not t:
            return None
        return Fingerprint((6, 6), 16, (10, 6, 0) if t > 0 else (8, 8, 0))
    if phi.n == 8:
        killing = _SEXTIC_KILLING.get(inertia_fraction(_sextic_gram(terms)))
        if killing is None:
            return None
        return Fingerprint((8, 8), 8, killing)
    p, q, z = inertia_fraction(_bryant_gram(terms))
    if z:
        return None
    return Fingerprint((7, 7), 14, (0, 14, 0) if not p or not q else (8, 6, 0))


def _closed_form(red: Reduction, ls: LengthSign | None) -> Fingerprint | None:
    """The fingerprint of phi_r when it needs no solve.

    Derived in fingerprint: decomposable forms (r = k), full-rank
    (n-2)-forms, 2-forms of rank r > 2 (phi_r is symplectic) and stable
    3-forms of rank 6, 7 or 8.  None for every other form.  ls, phi's
    LengthSign under any volume, spares a full-rank (n-2)-form a second
    Pfaffian elimination.
    """
    n, k, r = red.original_n, red.reduced.k, red.r
    if r == k:
        profile = tuple(comb(k, j) for j in range(1, k))
        return Fingerprint(profile, k * k - 1, (k * (k + 1) // 2 - 1, k * (k - 1) // 2, 0))
    if r == n and k == n - 2:
        if ls is None:
            ls = length_and_sign(red.reduced, VolumeForm(n))
        l = ls.length
        m = n - 2 * l
        profile = tuple(
            sum(min(comb(2 * l, a), comb(2 * l, a + 2)) * comb(m, j - a) for a in range(j + 1))
            for j in range(1, k)
        )
        killing = (l * (l + 1) + m * (m + 1) // 2, l * l + m * (m - 1) // 2, 2 * l * m)
        return Fingerprint(profile, n * (n + 1) // 2 + m * (m - 1) // 2, killing)
    if k == 2:
        l = r // 2
        return Fingerprint((r,), l * (2 * l + 1), (l * (l + 1), l * l, 0))
    if k == 3 and r in (6, 7, 8):
        return _stable_three_form(red.reduced)
    return None


def _reduced_stabilizer(
    phi: Form, ls: LengthSign | None = None
) -> tuple[Reduction | None, Fingerprint | None, StabAlgebra | None]:
    """The rank-r reduction of phi, phi_r's closed-form fingerprint, and the algebra solved.

    One of the last two is None: _closed_form's fingerprint spares the
    solve, else stab(phi_r) is solved on r^2 columns (see fingerprint).
    Zero forms and 0-forms have no reduction and solve stab(phi) itself.
    """
    if phi.k < 1 or phi.is_zero:
        return None, None, stabilizer_algebra(phi)
    red = reduce_form(phi)
    closed = _closed_form(red, ls)
    if closed is not None:
        return red, closed, None
    return red, None, stabilizer_algebra(red.reduced)


def orbit_dimension(phi: Form) -> int:
    """n^2 - dim stab(phi), which is n*r - s_r at rank r >= 1 (see fingerprint).

    No Killing form is built.
    """
    red, closed, S = _reduced_stabilizer(phi)
    if red is None:
        return phi.n * phi.n - S.dim
    return phi.n * red.r - (S.dim if closed is None else closed.stab_dim)


def is_stable(phi: Form) -> bool:
    """True when the orbit of phi is open: orbit dimension fills the degree space."""
    return orbit_dimension(phi) == comb(phi.n, phi.k)


def fingerprint(phi: Form) -> Fingerprint:
    """Rank profile, stabilizer dimension and Killing signature of phi.

    A form of rank 0 < r < n is fingerprinted on its rank-r reduction phi_r,
    with m = n - r.  In a frame whose last m vectors span W = ker phi, A
    fixes phi exactly when it preserves W and induces an element of
    stab(phi_r) on R^n/W, so stab(phi) = (stab(phi_r) + gl(m)) x Hom(R^r, R^m):
    A = [[a, 0], [c, d]] with a in stab(phi_r), c and d free.  Hence:

    * the contraction ranks are those of phi_r;
    * stab_dim = s_r + n*m;
    * the Killing signature follows from the Killing form K_r of stab(phi_r).
      Hom(R^r, R^m) is an abelian ideal, so it lies in the radical of K.  On
      the rest, K = K_r(a, a') + m tr(aa') + (2m + r) tr(dd') - 2 tr d tr d'
      - tr d tr a' - tr a tr d', which makes sl(m) orthogonal to everything
      else with K = (2m + r) tr(dd') there.  On stab(phi_r) + R Id_m the Gram
      matrix is [[K_r + m T, -m tau], [-m tau^T, r m]], with
      T(t, u) = tr(X_t X_u) and tau(t) = tr X_t.  A Schur complement on its
      positive entry r m, scaled by r, leaves
      killing = inertia(r K_r + r m T - m tau tau^T)
                + (m(m+1)/2, m(m-1)/2, r m).

    At r = k, phi is decomposable and nothing is solved beyond its rank:
    phi_r = c e^{1...k} is fixed by A exactly when tr A = 0 and all its
    contractions are onto, so profile = (C(k,1), ..., C(k,k-1)), stab(phi_r) =
    sl(k), tau = 0 and K_k = 2k T.  The block is (2k^2 + k m) T, and T is
    positive on traceless symmetric and negative on antisymmetric matrices:
    killing = (k(k+1)/2 - 1 + m(m+1)/2, k(k-1)/2 + m(m-1)/2, k m).

    A full-rank (n-2)-form solves nothing beyond its rank either.  Write
    phi = i_xi vol with xi a bivector of rank 2l, l >= 2 (Martinet's length),
    and m = n - 2l.  In the convention of infinitesimal_act, A acts on vectors
    by v -> Av and on vol by -tr A, so A fixes phi exactly when
    A.xi = tr(A) xi.  In a frame with xi = e_12 + ... + e_{2l-1,2l} on
    V = R^(2l) and U = R^m last, A = [[a, b], [c, d]] must have c = 0 (xi is
    nondegenerate on V), and a = a0 + (mu/2) Id with a0 in sp(2l) and
    mu = tr A, that is tr d = (1 - l) mu.  So stab(phi) = (sp(2l) + gl(m)) x
    Hom(U, V), with mu read off tr d, and:

    * i_X phi = +-i_{X ^ xi} vol, so r_j is the rank of X -> X ^ xi from
      degree j to degree j + 2.  It splits by the degree a of the V-factor,
      where hard Lefschetz makes Lambda^a V -> Lambda^(a+2) V injective for
      a <= l - 1 and onto for a >= l - 1:
      r_j = sum_a min(C(2l, a), C(2l, a+2)) C(m, j - a);
    * stab_dim = l(2l + 1) + m^2 + 2lm = n(n+1)/2 + m(m-1)/2 (at m = 0,
      tr d = 0 forces mu = 0);
    * Hom(U, V) is an abelian ideal, so it lies in the radical.  On sp(2l)
      and on sl(m), K is a positive multiple of the trace form, of inertia
      (l(l+1), l^2) and (m(m+1)/2 - 1, m(m-1)/2).  For m >= 1 the centre
      acts on Hom(U, V) by the nonzero scalar mu (n - 2) / (2m), which gives
      one positive direction, and no cross term survives:
      killing = (l(l+1) + m(m+1)/2, l^2 + m(m-1)/2, 2lm).

    A 2-form of rank r = 2l > 2 solves nothing beyond its rank either:
    phi_r is symplectic, so profile = (r,) and stab(phi_r) = sp(r), simple,
    of dimension l(2l + 1) and Killing inertia (l(l+1), l^2, 0).  On R^r it
    acts by its defining representation, so tau = 0, T is a positive multiple
    of K_r, and the lift is that of stable 3-forms below.

    A stable 3-form of rank r = 6 or 7 solves nothing beyond its rank
    either: one exact invariant of phi_r, built from the 5-forms
    psi_w = i_{e_w} phi_r ^ phi_r, names its stabilizer.

    * At r = 6, K(e_w) is the vector that poincare_inv dualizes psi_w to,
      and Hitchin's lambda = tr(K^2) / 6 is a quartic in the coefficients
      (J. Differential Geom. 55, 2000).  GL(6, R) has two open orbits on
      Lambda^3, and lambda != 0 on exactly these.  lambda > 0 on
      e^123 + e^456, fixed by sl(3, R) + sl(3, R), of Killing inertia
      (10, 6, 0); lambda < 0 on the real part of a complex volume form,
      fixed by sl(3, C) as a real algebra, of inertia (8, 8, 0).  Both
      stabilizers have dimension 16 = 36 - 20.
    * At r = 7, B(v, w) = i_v phi ^ i_w phi ^ phi against e^{1..7} is
      symmetric, and phi is stable exactly when B is nondegenerate (Bryant,
      "Some remarks on G2-structures", 2005).  Then stab(phi) is the compact
      G2 when B is definite, of inertia (0, 14, 0), and the split G2 when it
      is not, of inertia (8, 6, 0), both of dimension 14 = 49 - 35.
    * g in GL multiplies tr K^2 by det(g)^-2 and B, up to congruence, by
      det(g)^-1, so the sign of lambda and the definiteness of B are orbit
      invariants.  They are taken on phi_r scaled to integers: a scale
      c > 0 multiplies tr K^2 by c^4 and B by c^3, which moves neither.
    * A stable form has full rank, so profile = (r, r).  All four
      stabilizers are semisimple, so tau = 0, and on each simple ideal the
      trace form T is a positive multiple of K_r (on sl(3, C), T is twice
      the real part of the complex trace form).  The block r K_r + r m T has
      the inertia of K_r, and the lift is that of decomposable forms:
      stab_dim = s_r + n m, killing = K_r's inertia
      + (m(m+1)/2, m(m-1)/2, r m).
    * lambda = 0 at rank 6 (an orbit the catalog lacks) and det B = 0 at
      rank 7 are not stable, and keep the solve.

    A stable 3-form of rank 8 solves nothing beyond its rank either: a
    sextic invariant Q decides stability and names the orbit.

    * GL(8, R) has three open orbits on Lambda^3 R^8 (Djokovic, Lin.
      Multilin. Alg. 13, 1983; Hitchin, "Stable forms and special metrics",
      2001).  Each holds the Cartan form K(X, [Y, Z]) of a real form of
      sl(3, C) on its 8-dimensional Lie algebra g: sl(3, R), su(2, 1) or
      su(3).  Its stabilizer is ad(g), of dimension 8 = 64 - 56.
    * Let M_x[u][z] be the coefficient of e^u ^ i_z phi ^ i_x phi ^ phi on
      e^{1..8}, so that column z of M_x is the vector poincare_inv dualizes
      the 7-form i_x phi ^ i_z phi ^ phi to, and set Q(x, y) = tr(M_x M_y).
      That 7-form is a vector times the volume form, so M_x is an
      endomorphism times one factor of Lambda^8, and Q is a symmetric
      bilinear form times two such factors.  g in GL therefore changes Q
      by a congruence and by det(g)^-2 > 0, and a scale c > 0 of the terms
      multiplies it by c^6, so Q's inertia is an orbit invariant.
    * On the Cartan forms (tests/conftest.py), Q has inertia (5, 3, 0) for
      sl(3, R), (4, 4, 0) for su(2, 1) and (8, 0, 0) for su(3).  These are
      distinct, so Q names the open orbit, and the Killing signature is that
      of the real form: (5, 3, 0), (4, 4, 0) and (0, 8, 0).  Q is not the
      Killing form: on the compact orbit the two have opposite signs, so the
      map is read off the representatives.
    * det Q != 0 exactly when phi is stable, so a Q of any other inertia
      keeps the solve; e^123 + e^456 + e^178, with Q of inertia (1, 0, 7)
      and stab 23, is one such form.  The proof is over C; G = GL(8, C).
      1. det Q is a polynomial of degree 48 in the coefficients with
         det Q(g.phi) = det(g)^-18 det Q(phi): a relative invariant.
      2. (G, Lambda^3 C^8) is an irreducible prehomogeneous space: the
         orbit of a Cartan form is open.  G is reductive, and the generic
         isotropy has Lie algebra ad(sl(3, C)), which is semisimple, so
         reductive.  So the singular set S, the complement of the open
         orbit, is a hypersurface (Kimura, Introduction to Prehomogeneous
         Vector Spaces, AMS 2003, Theorem 2.28: for reductive G, S is a
         hypersurface if and only if a generic isotropy subgroup is
         reductive; by Matsushima's criterion the open orbit is affine,
         and the complement of an affine open set has pure codimension
         one).  G is connected, so it fixes each component {f_i = 0} of
         S, and each irreducible f_i is a relative invariant.  A character
         of G is a power of det, fixed by its value on the scalars, that
         is by the degree; so f_i^deg(h) / h^deg(f_i), for any relative
         invariant h, is an absolute invariant, constant on the open orbit
         and so everywhere.  Hence S is the zero set of one basic relative
         invariant f, and every relative invariant is c f^m (Kimura,
         Theorem 2.9; Sato and Kimura, Nagoya Math. J. 65, 1977, list f,
         of degree 16, with character det^-6, so m = 3, but nothing here
         uses that).
      3. c != 0, because the Cartan forms have det Q != 0.
      4. So det Q(phi) != 0 exactly when phi is off S, that is when its
         complex orbit is open and stab(phi) has dimension 64 - 56 = 8.
         The stabilizer system has rational coefficients, so the
         dimension is the same over C and over R, and the real orbit of
         phi is one of the three open ones.
    * Stable means full rank, so profile = (8, 8).  stab(phi_8) = ad(g) is
      simple and acts on R^8 = g by its adjoint representation, so
      T(X, Y) = tr(ad X ad Y) = K_8 and tau = 0.  The block r K_r + r m T
      is 8(1 + m) K_8, and the lift is the one above: stab_dim = 8 + n m,
      killing = K_8's inertia + (m(m+1)/2, m(m-1)/2, 8 m).

    Other full-rank forms solve phi itself, without a second degree-1 solve
    for the first rank; zero forms and 0-forms keep the stabilizer of phi.
    Every solved rank profile stops at j = k/2 (_mirror).
    Fingerprint(rank_profile(phi), S.dim, killing_signature(S)) with
    S = stabilizer_algebra(phi) is the generic path, and the tests compare
    the two.
    """
    return _fingerprint(phi)[0]


def _fingerprint(
    phi: Form, ls: LengthSign | None = None
) -> tuple[Fingerprint, Reduction | None, Fingerprint | None]:
    """fingerprint(phi), the reduction it used, and phi_r's fingerprint.

    The reduction and phi_r's fingerprint are None for zero forms and
    0-forms.  ls, phi's LengthSign if the caller holds it, spares
    _closed_form a second Pfaffian elimination.
    """
    red, sub, S = _reduced_stabilizer(phi, ls)
    if red is None:
        return Fingerprint(rank_profile(phi), S.dim, killing_signature(S)), None, None
    n, k, r = phi.n, phi.k, red.r
    m = n - r
    if S is not None:
        ranks = [rank_rows(*_contraction_rows(red.reduced, j)) for j in range(2, k // 2 + 1)]
        gram, scale = _killing_gram(r, S._flat, S._free)
        sub = Fingerprint(_mirror([r] + ranks, k), S.dim, inertia_fraction(gram))
    p, q, z = sub.killing_signature
    if S is not None and m:
        flats = S._flat
        traces = [sum(x[:: r + 1]) for x in flats]
        transposed = [[y for c in range(r) for y in x[c::r]] for x in flats]
        sq = scale * scale
        block = [
            [
                r * g + sq * m * (r * sum(map(mul, x, y)) - tx * ty)
                for g, y, ty in zip(row, transposed, traces)
            ]
            for row, x, tx in zip(gram, flats, traces)
        ]
        p, q, z = inertia_fraction(block)
    killing = (p + m * (m + 1) // 2, q + m * (m - 1) // 2, z + r * m)
    return Fingerprint(sub.rank_profile, sub.stab_dim + n * m, killing), red, sub


@dataclass(frozen=True)
class LengthSign:
    """Martinet data of a codimension-two form.

    length is half the rank of the dual bivector xi.  lam is the coefficient
    class of the canonical form, defined only at maximal length 2l = n, where
    it is the sign of scale * Pf(xi), +1 or -1, and invariant under
    orientation-preserving changes of basis.  sign = lam^length there; it is
    invariant under all of GL and, together with length, decides the orbit.
    The zero form reports (0, None, 0), and sign is 1 whenever
    0 < 2*length < n.
    """

    length: int
    lam: Fraction | None
    sign: int


def _bivector_matrix(phi: Form, omega: VolumeForm) -> list[list[int]]:
    """Skew matrix of the bivector poincare_inv(omega, phi), up to a positive scale.

    phi's coefficient c at idx puts c / (sign * scale) on the complement
    {i < j}, where sign = (-1)^(i+j+1) is contract_sign's for removing i,
    then j, from 1..n.  Taking phi.nums and only the sign of the scale
    multiplies the matrix by a positive number, which keeps its rank and the
    sign of its Pfaffian.
    """
    n = phi.n
    if n != omega.n:
        raise DimensionMismatch(f"dimension {n} != {omega.n}")
    full = (1 << n) - 1
    flip = 1 if omega.scale > 0 else -1
    S = [[0] * n for _ in range(n)]
    for idx, c in phi.nums.items():
        i, j = _index(full ^ _mask(idx))
        c = flip * c if (i + j) % 2 else -flip * c
        S[i - 1][j - 1], S[j - 1][i - 1] = c, -c
    return S


def length_and_sign(phi: Form, omega: VolumeForm) -> LengthSign:
    """Martinet length and sign of an (n-2)-form from its dual bivector xi.

    skew_pairs gives half the rank of xi and the sign of its Pfaffian.
    """
    if phi.k != phi.n - 2:
        raise DegreeError(f"degree {phi.k} is not {phi.n} - 2")
    if phi.is_zero:
        return LengthSign(0, None, 0)
    l, pf = skew_pairs(_bivector_matrix(phi, omega))
    if 2 * l < phi.n:
        return LengthSign(l, None, 1)
    # Maximal length: a congruence C taking S to e_12 + ... + e_{n-1,n} has
    # det(C) Pf(S) = 1, because Pf(C S C^T) = det(C) Pf(S).  So the exact
    # coefficient class scale / det(C) is scale * Pf(S); Sp(n, Q) has
    # determinant one, so no basis choice can disturb its sign.
    lam = Fraction(1 if pf * omega.scale > 0 else -1)
    sign = int(lam) if l % 2 else 1
    return LengthSign(l, lam, sign)


@dataclass(frozen=True)
class NilpotencyWitness:
    """A one-parameter subgroup of SL(n) contracting a degenerate polyvector.

    The curve is g(t) = basis . diag(t^w) . basis^{-1}; its action scales the
    witnessed polyvector by t^rate.  Exponents are listed in the eigenbasis
    order: support directions first, then the complement.
    """

    exponents: tuple[int, ...]
    rate: int
    basis: LinMap

    def curve(self, t: Scalar) -> LinMap:
        t = Fraction(t)
        if not t:
            raise FormError("curve parameter must be nonzero")
        diag = LinMap.diagonal([t**w for w in self.exponents])
        return self.basis @ diag @ self.basis.inverse()


def nilpotency_witness_degenerate(x: Polyvector) -> NilpotencyWitness:
    """Witness that a degenerate polyvector is contracted to zero inside SL(n).

    The support of x (the smallest subspace carrying it) is the common
    annihilator of the covectors killed by contraction into x.  Weighting
    support directions by n - r and the rest by -r gives a traceless weight
    vector whose curve scales x by t^(k(n - r)).
    """
    if x.is_zero:
        raise FormError("zero polyvector has no nilpotency witness")
    if x.k < 1:
        raise DegreeError("witness needs degree at least 1")
    n = x.n
    covectors, _ = _kernel_basis(x)
    support, free = nullspace_rows(covectors, n)
    r = len(support)
    if r == n:
        raise FormError("no witness by this construction: polyvector is non-degenerate")
    pivot_cols = [c for c in range(n) if c not in set(free)]
    cols: list[list[Scalar]] = list(support)
    cols.extend([int(i == c) for i in range(n)] for c in pivot_cols)
    basis = LinMap.from_columns(cols)
    exponents = tuple([n - r] * r + [-r] * (n - r))
    rate = x.k * (n - r)
    return NilpotencyWitness(exponents=exponents, rate=rate, basis=basis)


def orientation_reversing_stabilizer_witness(phi: Form) -> LinMap:
    """A determinant -1 matrix fixing phi: the reflection along its first kernel vector.

    Exists exactly when phi is degenerate.  One nullspace solve gives the
    kernel; no reduction or pullback is taken.  A zero form's first kernel
    vector is e_1.
    """
    if phi.k < 1:
        raise DegreeError("witness needs degree at least 1")
    kernel, _ = _kernel_basis(phi)
    if not kernel:
        raise FormError("no witness by this construction: form is non-degenerate")
    return _kernel_reflection(kernel[0])
