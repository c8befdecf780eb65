import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab import Form, linalg
from formlab.invariants import _contraction_rows
from formlab.linalg import (
    _inverse_int,
    _scale_to_int,
    as_fraction,
    det_fraction,
    inertia_fraction,
    inverse_fraction,
    nullspace_rows,
    primitive_vector,
    rank_rows,
    row_echelon_int,
    skew_pairs,
)

from conftest import (
    det_gauss,
    det_oracle,
    inertia_oracle,
    nullspace_oracle,
    pfaffian_oracle,
    random_int_matrix,
    rank_mod_p_oracle,
    rref_rank,
)

small_int = st.integers(min_value=-9, max_value=9)
# ints mixed with proper fractions, so scaling to integers is exercised
scalar = st.one_of(small_int, st.builds(Fraction, small_int, st.integers(2, 6)))


def matrix_strategy(max_rows=5, max_cols=5, entries=small_int):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=max_rows
        )
    )


def square_strategy(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def test_as_fraction_and_int_rows():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    # one factor for the whole matrix, the lcm of all its denominators
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(5), Fraction(0)]]
    assert _scale_to_int(rows) == ([[3, 2], [30, 0]], 6)


def test_primitive_vector():
    assert primitive_vector([Fraction(2, 3), Fraction(-4, 3)]) == [1, -2]
    assert primitive_vector([Fraction(0), Fraction(0)]) == [0, 0]
    # leading nonzero entry is normalized positive
    assert primitive_vector([Fraction(-1, 2)]) == [1]
    assert primitive_vector([Fraction(0), Fraction(-2), Fraction(4)]) == [0, 1, -2]


@given(matrix_strategy())
@settings(max_examples=120, deadline=None)
def test_rank_matches_rref_oracle(rows):
    ncols = len(rows[0])
    assert rank_rows(rows, ncols) == rref_rank(rows, ncols)


def test_rank_structured_cases():
    assert rank_rows([[0, 0], [0, 0]], 2) == 0
    assert rank_rows([[1, 2], [2, 4]], 2) == 1
    assert rank_rows([[1, 0, 0], [0, 1, 0]], 3) == 2
    # fraction input
    assert rank_rows([[Fraction(1, 7), Fraction(2, 7)], [1, 2]], 2) == 1


@given(matrix_strategy())
@settings(max_examples=100, deadline=None)
def test_nullspace_annihilates_and_has_right_dimension(rows):
    ncols = len(rows[0])
    basis, free = nullspace_rows(rows, ncols)
    assert len(basis) == ncols - rref_rank(rows, ncols)
    assert len(free) == len(basis)
    for vec in basis:
        assert all(isinstance(x, int) for x in vec)
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def test_nullspace_free_coordinate_structure():
    # basis vector t must be the only one supported at free column t
    rows = [[1, 2, 3, 4], [0, 0, 1, 1]]
    basis, free = nullspace_rows(rows, 4)
    assert len(basis) == 2
    for t, f in enumerate(free):
        for s, vec in enumerate(basis):
            if s == t:
                assert vec[f] != 0
            else:
                assert vec[f] == 0


@given(matrix_strategy(max_rows=6, max_cols=7, entries=scalar))
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_rref_oracle(rows):
    ncols = len(rows[0])
    assert nullspace_rows(rows, ncols) == nullspace_oracle(rows, ncols)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_rank_and_nullspace_match_oracles_on_every_shape(data):
    # B C with inner dimension d has rank at most d, so tall, square and wide
    # shapes come both at full rank and short of it, on either side of the
    # column count at which the certificate modulo a prime is tried; rational
    # row scales are cleared by scaling the whole matrix to integers first
    m = data.draw(st.integers(1, 16))
    c = data.draw(st.one_of(st.integers(1, 8), st.integers(12, 14)))
    d = data.draw(st.one_of(st.just(min(m, c)), st.integers(0, min(m, c))))
    B = data.draw(st.lists(st.lists(small_int, min_size=d, max_size=d), min_size=m, max_size=m))
    C = data.draw(st.lists(st.lists(small_int, min_size=c, max_size=c), min_size=d, max_size=d))
    scale = st.builds(Fraction, small_int.filter(bool), st.integers(1, 6))
    scales = data.draw(st.lists(scale, min_size=m, max_size=m))
    rows = [
        [s * sum(B[i][t] * C[t][j] for t in range(d)) for j in range(c)]
        for i, s in enumerate(scales)
    ]
    assert rank_rows(rows, c) == rref_rank(rows, c)
    assert nullspace_rows(rows, c) == nullspace_oracle(rows, c)


P = linalg._P
N = linalg._CERTIFY_MIN_COLS


def _with_identity(block):
    # block on the leading coordinates of R^N, the identity on the rest
    k = len(block)
    return [[*row, *[0] * (N - k)] for row in block] + [
        [int(j == i) for j in range(N)] for i in range(k, N)
    ]


def _random_times_p(seed, nrows, col, ncols=N):
    rows = random_int_matrix(random.Random(seed), nrows, ncols)
    return [[x * P if j == col else x for j, x in enumerate(row)] for row in rows]


def _times_det_p(seed, nrows, ncols):
    # U D with D = [[1, 1], [1, P + 1]] on the first two coordinates and the
    # identity on the rest: no column is a multiple of P, yet det D = P
    D = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    D[0][1], D[1][0], D[1][1] = 1, 1, P + 1
    U = random_int_matrix(random.Random(seed), nrows, ncols)
    return [[sum(u[t] * D[t][j] for t in range(ncols)) for j in range(ncols)] for u in U]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rank_mod_p_is_exact(data):
    # B C with inner dimension d has rank at most d, and columns multiplied
    # by P vanish modulo P, so tall, square and wide shapes come both at full
    # rank and short of it; the pass gives the exact rank modulo P either way
    # and leaves its input as it was
    c = data.draw(st.integers(N, 2 * N))
    m = data.draw(st.integers(1, 2 * N))
    d = data.draw(st.one_of(st.just(min(m, c)), st.integers(0, min(m, c))))
    B = data.draw(st.lists(st.lists(small_int, min_size=d, max_size=d), min_size=m, max_size=m))
    C = data.draw(st.lists(st.lists(small_int, min_size=c, max_size=c), min_size=d, max_size=d))
    times_p = data.draw(st.sets(st.integers(0, c - 1), max_size=3))
    mat = [
        [sum(B[i][t] * C[t][j] for t in range(d)) * (P if j in times_p else 1) for j in range(c)]
        for i in range(m)
    ]
    before = [list(row) for row in mat]
    assert linalg._rank_mod_p(mat, c) == rank_mod_p_oracle(mat, c, P)
    assert mat == before


@pytest.mark.parametrize(
    "rows",
    [
        _with_identity([[P]]),
        _with_identity([[1, 1], [1, P + 1]]),
        [[Fraction(P, 2), *[0] * (N - 1)], [*[0] * (N - 1), Fraction(1, 3)]],
        _random_times_p(7, N + 2, 2),
        _random_times_p(8, N, 0),
        # the first N rows are short over Q too; the last one completes them
        # over Q, but only by a multiple of P
        _with_identity([])[:-1] + [[1] + [0] * (N - 1), [0] * (N - 1) + [P]],
        # narrower than N, but at least twice as tall as wide: certified too
        _random_times_p(9, 28, 5, ncols=8),
        _times_det_p(10, 28, 8),
    ],
    ids=[
        "zero-column",
        "det-p",
        "wide-rational",
        "tall-times-p",
        "square-times-p",
        "late-row",
        "tall-narrow-times-p",
        "tall-narrow-det-p",
    ],
)
def test_full_rank_short_modulo_p_falls_back_to_bareiss(monkeypatch, rows):
    # full rank over Q, short modulo P once every row is added: the
    # certificate proves nothing, so the answer comes from one Bareiss pass
    # on all rows
    calls = []
    tried = []
    rank_mod_p = linalg._rank_mod_p

    def spy(mat, ncols):
        calls.append(len(mat))
        return row_echelon_int(mat, ncols)

    def spy_mod_p(mat, ncols):
        tried.append(len(mat))
        return rank_mod_p(mat, ncols)

    monkeypatch.setattr(linalg, "row_echelon_int", spy)
    monkeypatch.setattr(linalg, "_rank_mod_p", spy_mod_p)
    nrows, ncols = len(rows), len(rows[0])
    assert rref_rank(rows, ncols) == min(nrows, ncols)
    assert rank_rows(rows, ncols) == min(nrows, ncols)
    assert tried == calls == [nrows]
    assert nullspace_rows(rows, ncols) == nullspace_oracle(rows, ncols)
    assert calls == [nrows, nrows]


def test_full_rank_certified_without_bareiss(monkeypatch):
    def no_bareiss(*args):
        raise AssertionError("a full-rank system reached Bareiss")

    monkeypatch.setattr(linalg, "row_echelon_int", no_bareiss)
    tall = random_int_matrix(random.Random(1), N + 3, N)
    tall[-1] = [Fraction(x, 7) for x in tall[-1]]
    assert nullspace_rows(tall, N) == ([], [])
    assert rank_rows(tall, N) == N
    assert rank_rows(random_int_matrix(random.Random(2), 5, N), N) == 5
    # the first N rows are short over Q too; the pass goes on to the last
    # row, which completes them
    late = _with_identity([])[:-1] + [[1] + [0] * (N - 1), [0] * (N - 1) + [1]]
    assert linalg._rank_mod_p(late[:N], N) < N
    assert rank_rows(late, N) == N
    assert nullspace_rows(late, N) == ([], [])
    # the 56 x 8 degree-1 system of the benchmark's census operation 3 at
    # seed 0, a 4-form on R^8: narrow, but twice as tall as wide
    rng = random.Random("formlab-bench/census/0/3")
    phi = Form(8, 4, {idx: c for idx in combinations(range(1, 9), 4) if (c := rng.randint(-9, 9))})
    rows, ncols = _contraction_rows(phi)
    assert (len(rows), ncols) == (56, 8)
    assert nullspace_rows(rows, ncols) == ([], [])
    assert rank_rows(rows, ncols) == 8


@given(square_strategy())
@settings(max_examples=100, deadline=None)
def test_det_matches_permutation_expansion(mat):
    assert det_fraction(mat) == det_gauss(mat) == det_oracle(mat)


def test_det_edge_cases():
    assert det_fraction([]) == 1
    assert det_fraction([[Fraction(3, 4)]]) == Fraction(3, 4)
    assert det_fraction([[1, 2], [2, 4]]) == 0


def test_inverse_round_trip(rng):
    for _ in range(25):
        n = rng.randint(1, 5)
        mat = random_int_matrix(rng, n, n)
        d = det_fraction(mat)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                inverse_fraction(mat)
            continue
        inv = inverse_fraction(mat)
        for i in range(n):
            for j in range(n):
                s = sum(Fraction(mat[i][t]) * inv[t][j] for t in range(n))
                assert s == (1 if i == j else 0)


@given(square_strategy(max_n=5))
@settings(max_examples=100, deadline=None)
def test_inverse_round_trip_rational(mat):
    n = len(mat)
    if det_oracle(mat) == 0:
        with pytest.raises(ZeroDivisionError):
            inverse_fraction(mat)
        return
    inv = inverse_fraction(mat)
    for i in range(n):
        for j in range(n):
            assert sum(mat[i][t] * inv[t][j] for t in range(n)) == int(i == j)
            assert sum(inv[i][t] * mat[t][j] for t in range(n)) == int(i == j)


def test_inverse_edge_cases():
    assert inverse_fraction([]) == []
    assert inverse_fraction([[Fraction(3, 4)]]) == [[Fraction(4, 3)]]
    with pytest.raises(ZeroDivisionError):
        inverse_fraction([[0]])


def _check_inverse_int(mat):
    # A X == d I exactly on the rational entries, and X / d is inverse_fraction
    n = len(mat)
    X, d = _inverse_int(mat)
    assert type(d) is int and d
    assert len(X) == n and all(type(x) is int for row in X for x in row)
    for i in range(n):
        for j in range(n):
            assert sum(Fraction(mat[i][t]) * X[t][j] for t in range(n)) == d * (i == j)
    assert [[Fraction(x, d) for x in row] for row in X] == inverse_fraction(mat)
    return X, d


def test_inverse_int_cases():
    cases = [
        [[2, 1], [7, 4]],  # integer, det 1
        [[Fraction(1, 2), Fraction(2, 3)], [Fraction(-5, 7), 3]],  # rational
        [[0, 1, 2], [3, 0, 1], [1, 1, 0]],  # zero (1,1) entry: a row swap
        [[Fraction(3, 4)]],
        [[-5]],
    ]
    for mat in cases:
        _check_inverse_int(mat)
    # det < 0, and so is d
    assert _check_inverse_int([[1, 2, 0], [0, 1, 0], [0, 0, -3]])[1] < 0
    assert _inverse_int([]) == ([], 1)
    for singular in ([[0]], [[1, 2], [2, 4]], [[Fraction(1, 2), 1], [1, 2]]):
        with pytest.raises(ZeroDivisionError):
            _inverse_int(singular)


@given(square_strategy(max_n=5))
@settings(max_examples=100, deadline=None)
def test_inverse_int_is_the_integer_inverse(mat):
    if det_oracle(mat) == 0:
        with pytest.raises(ZeroDivisionError):
            _inverse_int(mat)
        return
    _check_inverse_int(mat)


def test_inertia_known_diagonals():
    assert inertia_fraction([[2, 0], [0, -3]]) == (1, 1, 0)
    assert inertia_fraction([[0]]) == (0, 0, 1)
    assert inertia_fraction([[1, 0, 0], [0, 0, 0], [0, 0, -1]]) == (1, 1, 1)
    # indefinite with zero diagonal: [[0,1],[1,0]] has eigenvalues +-1
    assert inertia_fraction([[0, 1], [1, 0]]) == (1, 1, 0)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_inertia_drops_zero_rows_exactly(data):
    # a symmetric matrix, with zeros common enough to leave singular blocks,
    # padded with zero rows and columns at random places
    m = data.draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), scalar)
    upper = {(i, j): data.draw(entry) for i in range(m) for j in range(i, m)}
    sym = [[upper[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    pads = data.draw(st.lists(st.integers(0, m), max_size=3))
    order = sorted([(i, 1, i) for i in range(m)] + [(at, 0, None) for at in pads])
    rows = [row for _, _, row in order]
    padded = [[0 if a is None or b is None else sym[a][b] for b in rows] for a in rows]
    p, q, z = inertia_oracle(sym)
    assert inertia_fraction(padded) == inertia_oracle(padded) == (p, q, z + len(pads))


wide = st.integers(-(2**300), 2**300)
wide_rational = st.builds(
    Fraction, st.one_of(small_int, wide), st.sampled_from((1, 2, 3, 4, 9, 35, 2**61 - 1))
)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_inertia_integer_kernel_matches_oracle(data):
    # wide rationals with mixed denominators, so one common scale and the
    # content division are exercised; a hollow set of indices has a zero
    # diagonal (all of it, when every index is hollow, which starts the
    # elimination on an off-diagonal pivot), optionally with a zero block
    # among them; chosen rows and columns are zeroed
    m = data.draw(st.integers(0, 7))
    hollow = data.draw(st.sets(st.integers(0, m - 1))) if m else set()
    zero_block = data.draw(st.booleans())
    zero_rows = data.draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else set()
    entry = st.one_of(st.just(0), wide_rational)
    upper = {}
    for i in range(m):
        for j in range(i, m):
            if i in zero_rows or j in zero_rows:
                upper[i, j] = 0
            elif i in hollow and j in hollow and (i == j or zero_block):
                upper[i, j] = 0
            else:
                upper[i, j] = data.draw(entry)
    sym = [[upper[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    assert inertia_fraction(sym) == inertia_oracle(sym)


def test_inertia_congruence_invariance(rng):
    # inertia(P A P^T) == inertia(A) for invertible P
    diag = [[3, 0, 0], [0, -2, 0], [0, 0, 0]]
    for _ in range(20):
        p = random_int_matrix(rng, 3, 3, bound=3)
        if det_fraction(p) == 0:
            continue
        conj = [
            [
                sum(
                    Fraction(p[i][a]) * diag[a][b] * p[j][b]
                    for a in range(3)
                    for b in range(3)
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert inertia_fraction(conj) == (1, 1, 1)


def test_skew_pairs_frozen():
    assert skew_pairs([[0, 5], [-5, 0]]) == (1, 1)
    assert skew_pairs([[0, -5], [5, 0]]) == (1, -1)
    assert skew_pairs([[0, 0], [0, 0]]) == (0, 0)
    assert skew_pairs([]) == (0, 1)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_skew_pairs_matches_rank_and_pfaffian(data):
    # odd and even sizes, wide rationals with mixed denominators and sparse
    # patterns, so the pivot search, the permutation sign, the sign of the
    # pivot and the content division are all exercised; chosen rows and
    # columns are zeroed, which drops the rank below full
    m = data.draw(st.integers(0, 8))
    zero_rows = data.draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else set()
    entry = st.one_of(st.just(0), st.just(0), wide_rational)
    skew = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if i not in zero_rows and j not in zero_rows:
                c = data.draw(entry)
                skew[i][j], skew[j][i] = c, -c
    l, s = skew_pairs(skew)
    assert 2 * l == rref_rank(skew, m)
    pf = pfaffian_oracle(skew)
    assert s == (pf > 0) - (pf < 0)
