"""Exact linear algebra over the rationals.

Rank, nullspace, determinant and inverse share one fraction-free (Bareiss)
forward pass, row_echelon_int, and one integer back-substitution whose
divisions are exact by Cramer's rule, so intermediate entries stay integral
and growth stays polynomial.  Every entry point scales its rational input to
integers in one place, _scale_to_int, which multiplies the whole matrix by the
least positive integer l that clears its denominators: that changes neither
rank nor nullspace, and multiplies the determinant of an n x n matrix by l^n.
Every row takes the same l, so the k x k pivots of a rational system carry
l^k; src passes rank_rows and nullspace_rows only integer systems.
The inverse leaves its pass as integer rows X over one divisor d, A X = d I
(_inverse_int), which the substitution kernel of exterior and LinMap.inverse
take as they are; inverse_fraction is their Fraction view.  No src code calls
inverse_fraction: it stays for the tests and the benchmark's tracer, which
looks up every name it wraps.  inertia_fraction and skew_pairs are
not solves: they apply each operation to rows and columns alike (congruence),
which a one-sided row reduction cannot reproduce.  Both divide each Schur
complement by its content instead of by pivots: what they return (the
inertia, the rank and the sign of the Pfaffian) survives a positive scaling.
No elimination here runs on Fraction, and nothing in this module ever rounds.

rank_rows, and nullspace_rows on a system with at least as many rows as
columns, first take the rank modulo the prime _P (_rank_mod_p) when the
system has _CERTIFY_MIN_COLS columns or more, or at least twice as many rows
as columns.  Every minor of an integer matrix that is nonzero modulo _P is
nonzero, so the rank modulo _P never exceeds the rank over Q; when it
reaches min(rows, columns), that is the exact rank, and a nullspace of full
column rank is exactly ([], []), what Bareiss would return.  The pass adds
the rows one at a time to an echelon basis modulo _P and stops once the
rank is full, so a tall system whose leading rows fall short, as when they
all come from a few terms of a form, simply goes on to its next row, and no
row is read twice.  A rank still short of full proves nothing, and the
Bareiss pass runs on all rows as before, so no answer depends on the choice
of prime.  _P is below 2^15 so that the pass, which packs each row into one
int, never carries between columns and multiplies by one CPython digit at a
time; that is what makes it cheaper than Bareiss on the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from struct import pack, unpack
from typing import Sequence

Scalar = int | Fraction
# The certificate modulo _P packs each row of residues into one Python int,
# 64 bits a column.  A row meets each pivot column at most once, and each
# time adds less than _P^2 < 2^30 to a slot, so with _P below 2^15 a slot
# stays below 2^63 for fewer than 2^32 columns: no slot carries into the
# next, bit_length() >> 6 is the top nonzero slot, and each multiplier is a
# single 30-bit CPython digit.  A prime near 2^31 or 2^61 would need wider
# slots and multi-digit products; on plain lists of residues, where the same
# digit limit holds, either one doubled the time of the pass.
_P = 32749
# A narrow system goes to Bareiss directly unless it is tall.  On a square
# system of small entries Bareiss costs less than the fixed per-column cost
# of the packed pass (random entries in [-9, 9] on a shared 2-vCPU host:
# 8 x 8 took 44 us in Bareiss against 96 us modulo _P, 16 x 16 238 us against
# 132 us), so the pass is tried from _CERTIFY_MIN_COLS columns up, where the
# degree-1 contraction map at the dimension cap falls.  A system with at
# least twice as many rows as columns is tried at any width: the pass stops
# after about ncols rows, while Bareiss updates every row below each pivot.
# On the degree-1 contraction maps of generic forms with entries in [-9, 9]
# (same host, in-process, best of 5, integer scaling included): 56 x 8 of a
# 4-form on R^8 took 0.23-0.25 ms in Bareiss against 0.062 ms modulo _P,
# 28 x 8 of a 3-form on R^8 0.119 against 0.051 ms, 21 x 7 on R^7 0.073-0.077
# against 0.041 ms and 15 x 6 on R^6 0.038 against 0.030 ms.
_CERTIFY_MIN_COLS = 12

__all__ = [
    "as_fraction",
    "row_echelon_int",
    "rank_rows",
    "nullspace_rows",
    "det_fraction",
    "inverse_fraction",
    "inertia_fraction",
    "skew_pairs",
    "primitive_vector",
]


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


def _scale_to_int(mat: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """(l * mat, l) as fresh lists of ints, l the least positive integer that
    clears every denominator: one factor for the whole matrix, so a congruence
    stays one.  TypeError on an entry that is neither an int nor a Fraction.
    """
    types = {type(x) for row in mat for x in row}
    if types <= {int}:
        return [list(row) for row in mat], 1
    for t in types:
        if not issubclass(t, (int, Fraction)):
            raise TypeError(f"expected an int or Fraction, got {t.__name__}")
    l = lcm(*{x.denominator for row in mat for x in row})
    return [[x.numerator * (l // x.denominator) for x in row] for row in mat], l


def row_echelon_int(
    mat: list[list[int]], ncols: int
) -> tuple[list[tuple[int, int]], int]:
    """Bareiss elimination, in place.  Returns the (row, col) pivot positions
    and the sign of the row swaps.

    The two-term update (p*a - f*b) // prev divides exactly because every
    intermediate entry is a minor of the original integer matrix; the pivot
    of the t-th pivot row is the leading t x t minor of the row-swapped
    matrix on the first t pivot columns.
    """
    nrows = len(mat)
    prev = 1
    pr = 0
    sign = 1
    pivots: list[tuple[int, int]] = []
    for pc in range(ncols):
        sel = -1
        for r in range(pr, nrows):
            if mat[r][pc]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != pr:
            mat[pr], mat[sel] = mat[sel], mat[pr]
            sign = -sign
        piv_row = mat[pr]
        p = piv_row[pc]
        for r in range(pr + 1, nrows):
            row = mat[r]
            f = row[pc]
            if f:
                for j in range(pc + 1, ncols):
                    row[j] = (p * row[j] - f * piv_row[j]) // prev
                row[pc] = 0
            elif p != prev:
                for j in range(pc + 1, ncols):
                    row[j] = (p * row[j]) // prev
        prev = p
        pivots.append((pr, pc))
        pr += 1
        if pr == nrows:
            break
    return pivots, sign


def _back_substitute(
    mat: list[list[int]], pivots: list[tuple[int, int]], free: int
) -> list[int]:
    """Integer nullspace vector of an echelon matrix from row_echelon_int.

    Coordinate `free` is set to the Bareiss pivot d of the last pivot column
    left of it (1 if none), the other free coordinates to 0.  Only the pivot
    rows with pivot columns left of `free` constrain that vector, and d is the
    determinant of their pivot block, so by Cramer's rule every coordinate is
    an integer and each division below is exact.  Returns coordinates
    0..free; the ones after `free` are 0.
    """
    used = [p for p in pivots if p[1] < free]
    x = [0] * (free + 1)
    x[free] = mat[used[-1][0]][used[-1][1]] if used else 1
    for pr, pc in reversed(used):
        row = mat[pr]
        s = 0
        for j in range(pc + 1, free + 1):
            rj = row[j]
            if rj and x[j]:
                s += rj * x[j]
        x[pc] = -s // row[pc]
    return x


def _pack(residues: Sequence[int]) -> int:
    """One int whose 64-bit slot j holds residues[j], each below 2^64."""
    return int.from_bytes(pack(f"<{len(residues)}Q", *residues), "little")


def _rank_mod_p(mat: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank modulo _P of the integer matrix mat, which is left untouched.

    One pass over the rows in order.  Each row is packed once by _pack,
    column j in slot j, and reduced from its top nonzero slot down: a slot
    whose column holds a pivot is cleared by one multiply-add with that
    pivot, one that is 0 modulo _P is dropped, and the first other one makes
    the rest of the row, scaled by -1/top and reduced, the pivot of its
    column.  Slots are reduced modulo _P only where they are read, and a
    sparse row, such as one of a signed permutation, costs no dense work.
    The pass returns as soon as the rank reaches min(len(mat), ncols).
    """
    full = min(len(mat), ncols)
    # one table a call, about 4 * ncols^2 bytes: a mask built at each step
    # made the pass 15-20% slower on the (8,4) stabilizer system
    masks = [(1 << 64 * c) - 1 for c in range(ncols)]
    pivots: list[int | None] = [None] * ncols
    rank = 0
    for row in mat:
        x = _pack([v % _P for v in row])
        while x:
            c = x.bit_length() >> 6
            low = x & masks[c]
            top = (x >> 64 * c) % _P
            if (piv := pivots[c]) is not None:
                x = low + top * piv
            elif not top:
                x = low
            else:
                m = _P - pow(top, -1, _P)
                rest = unpack(f"<{c}Q", low.to_bytes(8 * c, "little"))
                pivots[c] = _pack([y * m % _P for y in rest])
                rank += 1
                if rank == full:
                    return rank
                break
    return rank


def _certifies(nrows: int, ncols: int) -> bool:
    """Whether a system of this shape is worth the pass modulo _P first."""
    return ncols >= _CERTIFY_MIN_COLS or nrows >= 2 * ncols


def rank_rows(rows: Sequence[Sequence[Scalar]], ncols: int) -> int:
    """Rank over Q: certified modulo _P when full, else by Bareiss.

    Systems with fewer than _CERTIFY_MIN_COLS columns skip the certificate
    unless they have at least twice as many rows as columns.
    """
    mat, _ = _scale_to_int(rows)
    full = min(len(mat), ncols)
    if _certifies(len(mat), ncols) and _rank_mod_p(mat, ncols) == full:
        return full
    pivots, _ = row_echelon_int(mat, ncols)
    return len(pivots)


def primitive_vector(vec: Sequence[Scalar]) -> list[int]:
    """Clear denominators and divide by the content; leading nonzero made positive."""
    (ints,), _ = _scale_to_int([vec])
    g = gcd(*ints)
    if g == 0:
        return ints
    lead = next(v for v in ints if v)
    if lead < 0:
        g = -g
    return [v // g for v in ints]


def nullspace_rows(
    rows: Sequence[Sequence[Scalar]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    """Primitive integer basis of the right nullspace.

    Returns (basis, free_cols).  Basis vector t is supported on the pivot
    columns plus free_cols[t] only, so coordinates of any vector in the span
    can be read off at the free columns.

    A system with at least as many rows as columns is first tried modulo _P:
    full column rank there returns ([], []) with no Bareiss pass.  A wider
    system always has a kernel, so it goes to Bareiss directly, and so does
    one with fewer than _CERTIFY_MIN_COLS columns and fewer than twice as
    many rows as columns.
    """
    mat, _ = _scale_to_int(rows)
    if ncols <= len(mat) and _certifies(len(mat), ncols) and _rank_mod_p(mat, ncols) == ncols:
        return [], []
    pivots, _ = row_echelon_int(mat, ncols)
    pivot_cols = {pc for _, pc in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[int]] = []
    for f in free:
        x = _back_substitute(mat, pivots, f)
        basis.append(primitive_vector(x + [0] * (ncols - f - 1)))
    return basis, free


def det_fraction(entries: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant: the last Bareiss pivot of l * entries over l^n (_scale_to_int)."""
    n = len(entries)
    mat, l = _scale_to_int(entries)
    pivots, sign = row_echelon_int(mat, n)
    if len(pivots) < n:
        return Fraction(0)
    last = mat[n - 1][n - 1] if n else 1
    return Fraction(sign * last, l**n)


def _inverse_int(entries: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """(X, d) with A X = d I: the inverse of A = entries as integer rows over
    one divisor, from one Bareiss pass on [A | -I].  ZeroDivisionError if A
    is singular, which is when a pivot falls in the -I block.  Column j of X
    is the nullspace vector whose free coordinate n+j is the last pivot d of
    the A block (1 at n = 0), the same for every j; d may be negative.
    """
    n = len(entries)
    mat, _ = _scale_to_int(
        [[*row, *(-int(i == j) for j in range(n))] for i, row in enumerate(entries)]
    )
    pivots, _ = row_echelon_int(mat, 2 * n)
    if pivots and pivots[-1][1] >= n:
        raise ZeroDivisionError("singular matrix")
    d = mat[n - 1][n - 1] if n else 1
    cols = [_back_substitute(mat, pivots, n + j)[:n] for j in range(n)]
    return [list(row) for row in zip(*cols)], d


def inverse_fraction(entries: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """The inverse X / d of (X, d) = _inverse_int(entries); ZeroDivisionError if singular."""
    rows, d = _inverse_int(entries)
    return [[Fraction(v, d) for v in row] for row in rows]


def _divide_content(M: list[list[int]]) -> None:
    """Divide the integer matrix M, in place, by the gcd of all its entries."""
    g = 0
    for row in M:
        g = gcd(g, *row)
        if g == 1:
            return
    if g > 1:
        M[:] = [[x // g for x in row] for row in M]


def _inertia_int(M: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of a symmetric integer matrix, which is consumed.

    Each step takes the first nonzero diagonal entry d, with the rest of its
    row v, as pivot and replaces the remaining block S by
    |d| S - sign(d) v v^T, |d| times the Schur complement, then divides it by
    its content.  A pivot whose row has no other nonzero leaves S as it is.
    When the diagonal vanishes but some a_ij does not, adding row and column
    j to i makes the diagonal entry 2 a_ij, exactly, on integers.
    """
    _divide_content(M)
    p = q = 0
    while M:
        k = next((i for i, row in enumerate(M) if row[i]), -1)
        if k < 0:
            a = len(M)
            pair = next(((i, j) for i in range(a) for j in range(i + 1, a) if M[i][j]), None)
            if pair is None:
                return p, q, a
            i, j = pair
            M[i] = [x + y for x, y in zip(M[i], M[j])]
            for row in M:
                row[i] += row[j]
            k = i
        v = M.pop(k)
        for row in M:
            del row[k]
        d = v.pop(k)
        if d > 0:
            p += 1
        else:
            q += 1
        if not any(v):
            continue
        ad = abs(d)
        sv = v if d > 0 else [-x for x in v]
        for r, f in enumerate(v):
            if f:
                M[r] = [ad * x - f * y for x, y in zip(M[r], sv)]
            elif ad != 1:
                M[r] = [ad * x for x in M[r]]
        _divide_content(M)
    return p, q, 0


def inertia_fraction(sym: Sequence[Sequence[Scalar]]) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix.

    By Sylvester's law of inertia, a congruence followed by a positive
    scaling keeps (p, q, z), so the whole count runs on Python ints:

    * the matrix is scaled once to integers by _scale_to_int;
    * a simultaneous permutation of rows and columns splits it into the
      connected components of its nonzero pattern, a block diagonal matrix
      whose inertia is the sum over the blocks, and elimination never couples
      two components.  A zero row is a component of its own and counts one
      zero;
    * each block is eliminated on integers by _inertia_int.

    Content division keeps the entries no larger than in fraction-free
    (Bareiss) elimination with the same pivots.  After t steps, Bareiss holds
    B_t = D_t S_t, where S_t is the rational Schur complement and D_t a t x t
    minor, and B_t is integral; the block here is the primitive M_t = c_t S_t
    with c_t > 0, so D_t / c_t is an integer and |M_t| <= |B_t| entrywise.
    """
    M, _ = _scale_to_int(sym)
    n = len(M)
    seen = [False] * n
    p = q = z = 0
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for i in comp:
            for j, x in enumerate(M[i]):
                if x and not seen[j]:
                    seen[j] = True
                    comp.append(j)
        comp.sort()
        dp, dq, dz = _inertia_int([[M[i][j] for j in comp] for i in comp])
        p, q, z = p + dp, q + dq, z + dz
    return p, q, z


def skew_pairs(skew: Sequence[Sequence[Scalar]]) -> tuple[int, int]:
    """Half the rank of a skew-symmetric rational matrix and the sign of its
    Pfaffian: (l, s) with 2l = rank, s = sign Pf(S) at full rank, else s = 0.

    A congruence multiplies Pf by det(C) and a positive scaling t of an
    m x m matrix multiplies it by t^(m/2), so the sign survives the integer
    elimination, as the inertia does in inertia_fraction (2x2 pivots,
    Bunch 1982).  The matrix is scaled once to integers by _scale_to_int.
    Each step takes the first nonzero a = S_ij, i < j; moving rows and
    columns i, j to the front costs (-1)^(i+j-1), Pf of the leading block is
    a, and the rest R becomes |a| R + sign(a) (b_j b_i^T - b_i b_j^T), |a|
    times its Schur complement, where b_i, b_j are rows i, j off the block.
    Each new block is divided by its content.  The empty matrix has Pf 1.
    """
    S, _ = _scale_to_int(skew)
    _divide_content(S)
    pairs = 0
    sign = 1
    while S:
        m = len(S)
        pair = next(((i, j) for i in range(m) for j in range(i + 1, m) if S[i][j]), None)
        if pair is None:
            return pairs, 0
        i, j = pair
        a = S[i][j]
        if (i + j) % 2 == 0:
            sign = -sign
        bj = S.pop(j)
        bi = S.pop(i)
        for row in (bi, bj, *S):
            del row[j], row[i]
        if a < 0:
            sign = -sign
            bi = [-x for x in bi]
        a = abs(a)
        S = [
            [a * x + f * u - g * v for x, u, v in zip(row, bi, bj)]
            for row, f, g in zip(S, bj, bi)
        ]
        _divide_content(S)
        pairs += 1
    return pairs, sign
