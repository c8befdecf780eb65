import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import formlab
import formlab.exterior as exterior
from formlab import (
    DegreeError,
    DimensionMismatch,
    Form,
    FormError,
    InnerProduct,
    LinMap,
    OrientationError,
    Polyvector,
    SingularMatrix,
    VolumeForm,
    act,
    act_vectors,
    interior,
    multi_interior,
    musical,
    musical_inv,
    poincare,
    poincare_inv,
    pullback,
    twisted_act,
    wedge,
)
from formlab.exterior import _clean_terms, _substitute, contract_sign, normalize_index
from formlab.invariants import infinitesimal_act, reduce_form
from formlab.linalg import _inverse_int, _scale_to_int

from conftest import (
    det_gauss,
    det_oracle,
    evaluate_form,
    pairing,
    perm_sign,
    random_int_matrix,
    substitute_oracle,
)

coeffs = st.integers(-9, 9).filter(bool)
rational_coeffs = st.fractions(-9, 9, max_denominator=7).filter(bool)


def index_tuples(n, k):
    return st.sets(st.integers(1, n), min_size=k, max_size=k).map(lambda s: tuple(sorted(s)))


def forms(n, k, cls=Form):
    return st.dictionaries(index_tuples(n, k), coeffs, max_size=4).map(
        lambda d: cls(n, k, {i: Fraction(c) for i, c in d.items()})
    )


def vectors(n):
    return st.lists(st.integers(-5, 5), min_size=n, max_size=n)


def invertible_maps(n):
    return st.lists(vectors(n), min_size=n, max_size=n).map(LinMap).filter(lambda g: g.det != 0)


def orientation_preserving_maps(n):
    # Negating a row flips the sign of det, so no draw is rejected; rejecting
    # three draws in four trips hypothesis' filter_too_much health check.
    return invertible_maps(n).map(
        lambda g: g if g.det > 0 else LinMap([[-x for x in g.entries[0]], *g.entries[1:]])
    )


# ---------------------------------------------------------------- index logic


@given(st.integers(0, 6).flatmap(lambda m: st.permutations(list(range(m)))))
def test_normalize_index_sign_is_permutation_parity(perm):
    # the sign of any distinct values is the parity of their permutation:
    # 0..m-1 itself, and the same pattern on the spread values 3x + 1
    m = len(perm)
    assert normalize_index(perm) == (tuple(range(m)), perm_sign(perm))
    spread = [x * 3 + 1 for x in perm]
    assert normalize_index(spread) == (tuple(range(1, 3 * m, 3)), perm_sign(perm))


def test_normalize_index_rejects_duplicates():
    assert normalize_index((1, 3, 1)) is None
    assert normalize_index(()) == ((), 1)


def test_contract_sign_frozen():
    assert contract_sign((1, 2, 3), (2,)) == ((1, 3), -1)
    assert contract_sign((1, 2, 3, 4), (1, 3)) == ((2, 4), -1)
    assert contract_sign((1, 2, 3, 4), (1, 2)) == ((3, 4), 1)
    assert contract_sign((1, 2), (3,)) is None
    assert contract_sign((1, 2), ()) == ((1, 2), 1)


# ------------------------------------------------------------- constructors


def test_constructor_validation():
    with pytest.raises(ValueError):
        Form(3, 2, {(2, 1): Fraction(1)})  # not increasing
    with pytest.raises(ValueError):
        Form(3, 2, {(1, 4): Fraction(1)})  # out of range
    with pytest.raises(ValueError):
        Form(3, 1, {(1, 2): Fraction(1)})  # wrong length
    with pytest.raises(ValueError):
        Form(3, 4, {(1, 2, 3, 4): Fraction(1)})  # k > n must stay zero
    assert Form(3, 4).is_zero  # but the zero space itself is allowed
    assert Form.zero(3, 4).k == 4


def test_basis_accumulates_signs():
    f = Form.basis(4, (2, 1), 3)
    assert f.coeff((1, 2)) == -3
    assert Form.basis(4, (1, 1)).is_zero
    g = Form.basis(4, (3, 1, 2), Fraction(1, 2))
    assert g.coeff((1, 2, 3)) == Fraction(1, 2)


def test_constructor_sums_repeated_indices():
    # wedge, interior, multi_interior, + and infinitesimal_act hand their
    # unsummed (index, coefficient) pairs to the constructor
    pairs = [((1,), 1), ((1,), -1), ((2,), 1), ((2,), 1)]
    assert Form(3, 1, pairs) == Form(3, 1, {(2,): 2})
    assert list(Form(3, 1, pairs).terms) == [(2,)]
    assert Form(3, 1, [((3,), Fraction(1, 2)), ((3,), Fraction(-1, 2))]).is_zero


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constructor_stores_least_divisor(data):
    # repeated indices and zero coefficients: the stored ints are nonzero,
    # den is the least positive integer clearing every denominator, and the
    # Fraction view is what validation makes of the pairs
    n = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, n))
    idx = st.sampled_from(list(combinations(range(1, n + 1), k)))
    coeff = st.one_of(st.just(0), rational_coeffs)
    pairs = data.draw(st.lists(st.tuples(idx, coeff), max_size=8))
    for cls in (Form, Polyvector):
        t = cls(n, k, pairs)
        assert t.den > 0 and gcd(t.den, *t.nums.values()) == 1 and all(t.nums.values())
        assert t.terms == _clean_terms(n, k, pairs)


def test_terms_are_immutable():
    f = Form.basis(3, (1, 2))
    with pytest.raises(TypeError):
        f.terms[(1, 3)] = Fraction(1)
    with pytest.raises(AttributeError):
        f.n = 5


def test_value_types_are_frozen_dataclasses():
    # formlab's own classes, less its exceptions (Rat is fractions.Fraction)
    exported = [getattr(formlab, name) for name in formlab.__all__]
    value_types = {
        c.__name__
        for c in exported
        if isinstance(c, type) and c.__module__.startswith("formlab.") and not issubclass(c, Exception)
    }
    assert value_types == {
        "Form", "Polyvector", "LinMap", "VolumeForm", "InnerProduct", "Reduction", "StabAlgebra",
        "LengthSign", "NilpotencyWitness", "Fingerprint", "CatalogEntry", "OrbitReport",
    }
    for name in value_types:
        cls = getattr(formlab, name)
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, name
    # a field and a name that is no field: a dataclass rebuilt by slots=True
    # raises TypeError on the second
    for x in (
        Form.basis(3, (1, 2)),
        Polyvector.basis(3, (1,)),
        LinMap.identity(2),
        VolumeForm(2, 3),
        InnerProduct.identity(2),
    ):
        for name in ("n", "foo"):
            with pytest.raises(AttributeError):
                setattr(x, name, 5)
        with pytest.raises(AttributeError):
            del x.n


def test_volume_forms_hash_by_value_and_inner_products_compare_by_identity():
    assert VolumeForm(3, 2) == VolumeForm(3, Fraction(4, 2))
    assert hash(VolumeForm(3, 2)) == hash(VolumeForm(3, Fraction(4, 2)))
    assert VolumeForm(3, 2) != VolumeForm(3, -2) and VolumeForm(3) != VolumeForm(4)
    mu = InnerProduct([[2, 1], [1, 2]])
    assert mu == mu and mu != InnerProduct([[2, 1], [1, 2]])


def test_value_types_copy_and_pickle():
    # each reduces to its public constructor; InnerProduct compares by
    # identity, so its copies are compared by matrix
    half = Fraction(1, 2)
    mu = InnerProduct([[2, half], [half, 1]])
    values = [
        Form(3, 2, {(1, 2): half, (2, 3): -3}),
        Polyvector(3, 1, {(2,): half}),
        LinMap([[1, half], [0, 2]]),
        LinMap([[1, half], [0, 2]]).inverse(),
        VolumeForm(3, half),
        mu,
        formlab.classify(Form(9, 3, {(1, 2, 3): 1, (4, 5, 6): 1})),
    ]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            assert y.matrix == mu.matrix if x is mu else y == x


def test_arithmetic_and_zero_pruning():
    a = Form.basis(3, (1, 2), 2)
    b = Form.basis(3, (1, 2), -2) + Form.basis(3, (2, 3))
    s = a + b
    assert s.items() == [((2, 3), Fraction(1))]
    assert (a - a).is_zero
    assert (-a).coeff((1, 2)) == -2
    assert (a * Fraction(1, 2)).coeff((1, 2)) == 1
    assert (a / 4).coeff((1, 2)) == Fraction(1, 2)


def test_peer_checks():
    with pytest.raises(TypeError):
        Form.basis(3, (1,)) + Polyvector.basis(3, (1,))
    with pytest.raises(DimensionMismatch):
        Form.basis(3, (1,)) + Form.basis(4, (1,))
    with pytest.raises(DegreeError):
        Form.basis(3, (1,)) + Form.basis(3, (1, 2))


def test_equality_and_hash():
    a = Form.basis(3, (1, 2)) + Form.basis(3, (1, 3), 2)
    b = Form.basis(3, (1, 3), 2) + Form.basis(3, (1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != Form.basis(3, (1, 2))
    assert a != Polyvector(3, 2, dict(a.terms))


def test_polyvector_coords_round_trip():
    v = Polyvector.from_coords([1, Fraction(1, 2), -3])
    assert v.coords() == [1, Fraction(1, 2), -3]
    assert v.coeff((2,)) == Fraction(1, 2)


def test_volume_and_inner_product_validation():
    with pytest.raises(ValueError):
        VolumeForm(3, 0)
    assert VolumeForm(2, -2).as_form() == Form.basis(2, (1, 2), -2)
    with pytest.raises(ValueError):
        InnerProduct([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        InnerProduct([[1, 2], [2, 1]])  # not positive definite
    with pytest.raises(TypeError, match="float"):
        InnerProduct([[1.0, 0], [0, 1]])
    assert InnerProduct.identity(3).is_identity
    assert not InnerProduct([[2, 0], [0, 1]]).is_identity


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_inner_product_accepts_exactly_the_positive_definite(data):
    # a symmetric rational matrix whose diagonal is shifted by a drawn amount,
    # so both verdicts are common; the oracle is Sylvester's criterion, every
    # leading principal minor positive
    m = data.draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    shift = data.draw(st.integers(-2, 30))
    upper = {(i, j): data.draw(entry) for i in range(m) for j in range(i, m)}
    sym = [
        [upper[min(i, j), max(i, j)] + shift * (i == j) for j in range(m)] for i in range(m)
    ]
    definite = all(det_oracle([row[:t] for row in sym[:t]]) > 0 for t in range(1, m + 1))
    if definite:
        assert InnerProduct(sym).matrix == tuple(map(tuple, sym))
    else:
        with pytest.raises(FormError, match="positive definite"):
            InnerProduct(sym)


def test_linmap_basics():
    g = LinMap([[1, 2], [3, 4]])
    assert g.det == -2
    assert g.transpose().entries == ((1, 3), (2, 4))
    assert LinMap.from_columns([[1, 3], [2, 4]]) == g
    for cols in ([[1, 2, 3], [4, 5, 6]], [[1], [2]]):
        with pytest.raises(DimensionMismatch, match="square"):
            LinMap.from_columns(cols)
    h = g.inverse()
    assert (g @ h) == LinMap.identity(2)
    with pytest.raises(SingularMatrix):
        LinMap([[1, 2], [2, 4]]).inverse()
    v = Polyvector.from_coords([1, 1])
    assert g.apply(v).coords() == [3, 7]
    with pytest.raises(TypeError, match="float"):
        LinMap([[1, 0.5], [0, 1]])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_linmap_over_one_divisor_matches_fraction_oracles(data):
    # rows / den with den the least common denominator; every operation is
    # checked against the same operation on the Fraction entries
    n = data.draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    M, N = data.draw(square), data.draw(square)
    g, h = LinMap(M), LinMap(N)
    assert g.entries == tuple(map(tuple, M))
    assert g.den == lcm(*[Fraction(x).denominator for row in M for x in row])
    for spelling in (Fraction, lambda x: int(x) if Fraction(x).denominator == 1 else x):
        other = LinMap([[spelling(x) for x in row] for row in M])
        assert other == g and hash(other) == hash(g)
    assert g.det == det_oracle(M)
    prod = [[sum(M[i][t] * N[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert (g @ h).entries == tuple(map(tuple, prod))
    assert g.transpose().entries == tuple(zip(*M))
    v = data.draw(vectors(n))
    assert g.apply(Polyvector.from_coords(v)).coords() == [sum(map(mul, row, v)) for row in M]
    if g.det:
        inv = g.inverse().entries
        one = [[sum(M[i][t] * inv[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        assert one == [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        with pytest.raises(SingularMatrix):
            g.inverse()
    # derived matrices carry their operands' determinant and store what a
    # fresh elimination of their entries stores; g and g @ flip leave the
    # inverse's Bareiss pass with divisors of opposite signs
    flip = LinMap.diagonal([-1] + [1] * (n - 1))
    derived = [g @ h, g @ LinMap([row[:-1] + [0] for row in N]), g.transpose()]
    if g.det:
        assert _inverse_int(g.rows)[1] * _inverse_int((g @ flip).rows)[1] < 0
        derived += [g.inverse(), (g @ flip).inverse()]
    for x in derived:
        fresh = LinMap(x.entries)
        assert x == fresh and hash(x) == hash(fresh)
        assert x.det == det_oracle(x.entries)
    gram = [[sum(r[i] * r[j] for r in M) + (i == j) for j in range(n)] for i in range(n)]
    assert InnerProduct(gram).matrix == tuple(map(tuple, gram))  # M^T M + I


# ------------------------------------------------------------- frozen values


def test_wedge_frozen():
    e1, e2 = Form.basis(3, (1,)), Form.basis(3, (2,))
    assert wedge(e1, e2) == Form.basis(3, (1, 2))
    assert wedge(e2, e1) == Form.basis(3, (1, 2), -1)
    assert wedge(e1, e1).is_zero
    e12 = Form.basis(3, (1, 2))
    assert wedge(e12, Form.basis(3, (3,))) == Form.basis(3, (1, 2, 3))
    # degree overflow on a nonzero wedge collapses to the zero space
    assert wedge(e12, e12).is_zero and wedge(e12, e12).k == 4


def test_interior_frozen():
    e1 = Polyvector.basis(3, (1,))
    assert interior(e1, Form.basis(3, (1, 2))) == Form.basis(3, (2,))
    assert interior(e1, Form.basis(3, (2, 3))).is_zero
    e2 = Polyvector.basis(3, (2,))
    assert interior(e2, Form.basis(3, (1, 2))) == Form.basis(3, (1,), -1)


def test_multi_interior_frozen():
    phi = Form.basis(4, (1, 2, 3, 4))
    x = Polyvector.basis(4, (1, 3))
    assert multi_interior(x, phi) == Form.basis(4, (2, 4), -1)
    with pytest.raises(DegreeError):
        multi_interior(Polyvector.basis(4, (1, 2)), Form.basis(4, (1,)))


def test_act_frozen():
    g = LinMap.diagonal([2, 2, 2])
    e12 = Form.basis(3, (1, 2))
    assert act(g, e12) == Form.basis(3, (1, 2), Fraction(1, 4))
    assert twisted_act(g, -1, e12) == Form.basis(3, (1, 2), Fraction(1, 32))
    assert twisted_act(g, 0, e12) == act(g, e12)
    with pytest.raises(OrientationError):
        twisted_act(LinMap.diagonal([-1, 1, 1]), -1, e12)
    with pytest.raises(SingularMatrix):
        act(LinMap.diagonal([0, 1, 1]), e12)
    # degree 4 on R^3 holds only the zero tensor, which act keeps
    assert act(g, wedge(e12, e12)) == Form(3, 4)
    # top degree: g . c e^{1..n} = (c / det g) e^{1..n}, here det g = 11/2
    g3 = LinMap([[1, 2, 0], [0, Fraction(1, 2), 1], [3, 0, -1]])
    assert act(g3, Form.basis(3, (1, 2, 3), Fraction(3, 5))) == Form.basis(3, (1, 2, 3), Fraction(6, 55))
    # 2k = n with det g = -1: g^-1 sends e^1 to e^1 - e^2 / 2 and swaps e^3, e^4
    g4 = LinMap([[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    phi = Form(4, 2, {(1, 3): 1, (2, 4): 2})
    assert act(g4, phi) == Form(4, 2, {(1, 4): 1, (2, 4): Fraction(-1, 2), (2, 3): 2})


def test_act_of_half_degree_or_more_takes_no_inverse(monkeypatch):
    # for 2k >= n act substitutes the columns of g in the dual degree n - k
    # and divides by the det g it stores; only 2k < n inverts g
    def no_inverse(m):
        raise AssertionError("act inverted g")

    n = 5
    g = LinMap([[1, Fraction(1, 2), 0, 0, 0], [0, 2, 1, 0, 0], [0, 0, -1, 0, 3], [1, 0, 0, 1, 0], [0, 0, 0, 1, 1]])
    phis = [Form(n, k, {i: 1 + sum(i) % 3 for i in combinations(range(1, n + 1), k)}) for k in range(n + 1)]
    moved = [act(g, phi) for phi in phis]
    monkeypatch.setattr(exterior, "_inverse_over_divisor", no_inverse)
    for k, phi in enumerate(phis):
        if 2 * k >= n:
            assert act(g, phi) == moved[k]
        else:
            with pytest.raises(AssertionError, match="act inverted g"):
                act(g, phi)


def test_poincare_frozen():
    om = VolumeForm(3)
    assert poincare(om, Polyvector.basis(3, (2,))) == Form.basis(3, (1, 3), -1)
    assert poincare(om, Polyvector.basis(3, (1, 2, 3))) == Form(3, 0, {(): Fraction(1)})
    om2 = VolumeForm(3, Fraction(-1, 2))
    assert poincare(om2, Polyvector.basis(3, (1,))) == Form.basis(3, (2, 3), Fraction(-1, 2))


def test_poincare_rejects_a_form():
    # poincare contracts through multi_interior, which takes polyvectors only
    with pytest.raises(TypeError):
        poincare(VolumeForm(3), Form.basis(3, (2,)))


# ---------------------------------------------------------------- properties


@pytest.mark.parametrize("n,p,q", [(4, 1, 2), (5, 2, 2), (5, 1, 1)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wedge_bilinear_and_graded_commutative(n, p, q, data):
    a = data.draw(forms(n, p))
    b = data.draw(forms(n, p))
    c = data.draw(forms(n, q))
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
    assert wedge(a * 3, c) == wedge(a, c) * 3
    sign = (-1) ** (p * q)
    assert wedge(c, a) == wedge(a, c) * sign


@settings(max_examples=40, deadline=None)
@given(
    a=forms(5, 1),
    b=forms(5, 2),
    c=forms(5, 2),
)
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pullback_evaluation_semantics(data):
    # (m^* phi)(v_1, ..., v_k) == phi(m v_1, ..., m v_k), for any rational m,
    # singular or not, in every degree 0..n
    n = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, n))
    idxs = list(combinations(range(1, n + 1), k))
    terms = data.draw(st.dictionaries(st.sampled_from(idxs), rational_coeffs, max_size=4))
    phi = Form(n, k, terms)
    entry = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=3))
    row = st.lists(entry, min_size=n, max_size=n)
    m = LinMap(data.draw(st.lists(row, min_size=n, max_size=n)))
    vs = data.draw(st.lists(vectors(n), min_size=k, max_size=k))
    back = pullback(m, phi)
    mid = [[sum(m.entries[i][j] * v[j] for j in range(n)) for i in range(n)] for v in vs]
    assert evaluate_form(back, vs) == evaluate_form(phi, mid)


def substituted(terms, rows, n, k):
    """_substitute on Form(n, k, terms) by rows, wrapped by _from_clean.

    It must equal the Fraction oracle, and _from_clean must reduce the
    kernel's ints over its divisor to the (nums, den) the constructor stores.
    """
    out = Form._from_clean(n, k, *_substitute(Form(n, k, terms), *_scale_to_int(rows)))
    want = substitute_oracle(terms, rows, n)
    assert out.terms == want
    clean = Form(n, k, want)
    assert (out.nums, out.den) == (clean.nums, clean.den)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_substitute_matches_fraction_oracle(data):
    # the integer kernel, with its one division by D * d^k, against the same
    # loop on Fraction: coefficients with denominators up to 7 and rows whose
    # denominators differ from row to row, some zeroed or made dependent
    n = data.draw(st.integers(0, 7))
    k = data.draw(st.integers(0, n))
    idxs = list(combinations(range(1, n + 1), k))
    terms = data.draw(st.dictionaries(st.sampled_from(idxs), rational_coeffs, max_size=5))
    rows = []
    for _ in range(n):
        den = data.draw(st.integers(1, 7))
        entry = st.one_of(st.just(0), st.fractions(-6, 6, max_denominator=den))
        rows.append(data.draw(st.lists(entry, min_size=n, max_size=n)))
    if n:
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
            rows[i] = [0] * n
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in data.draw(st.lists(pairs, max_size=2)):
            q = data.draw(st.fractions(-3, 3, max_denominator=5))
            rows[i] = [q * x for x in rows[j]]
    substituted(terms, rows, n, k)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_substitute_dense_matches_fraction_oracle(data):
    # every multi-index of degree k carries a coefficient and every row is a
    # dense integer row, so each level of the kernel is as full as it gets
    n = data.draw(st.integers(0, 9))
    k = data.draw(st.integers(0, n))
    idxs = list(combinations(range(1, n + 1), k))
    cs = data.draw(st.lists(rational_coeffs, min_size=len(idxs), max_size=len(idxs)))
    terms = dict(zip(idxs, cs))
    entry = st.integers(-5, 5).filter(bool)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    substituted(terms, rows, n, k)


@pytest.mark.parametrize("k", [10, 11, 12])
@pytest.mark.parametrize("seed", [0, 1])
def test_substitute_sparse_top_degrees_at_n12(k, seed):
    # a few terms of degree n - 2, n - 1 and n on R^12, moved by rational
    # rows with some zero entries
    rng = random.Random(seed * 100 + k)
    n = 12
    idxs = list(combinations(range(1, n + 1), k))
    terms = {
        idx: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        for idx in rng.sample(idxs, min(3, len(idxs)))
    }
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    substituted(terms, rows, n, k)


def test_substitute_on_interleaved_shapes(rng):
    # the subset tables outlive the call that filled them, and the tuples
    # are shared by every n: calls at n = 7, 9, 7, 12 and then the first one
    # again must each equal the oracle
    calls = []
    for n, k, count in [(7, 3, 20), (9, 4, 30), (7, 4, 35), (12, 6, 4)]:
        idxs = list(combinations(range(1, n + 1), k))
        terms = {idx: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for idx in rng.sample(idxs, count)}
        calls.append((terms, random_int_matrix(rng, n, n), n, k))
    calls.append(calls[0])
    results = [substituted(*call) for call in calls]
    assert results[-1] == results[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_actions_wrap_clean_terms(data):
    # the five actions wrap the kernel's dict without _clean_terms: each
    # result must be what full validation makes of the same terms, with no
    # zero coefficient, for rational g of either sign of det
    n = data.draw(st.integers(0, 7))
    k = data.draw(st.integers(0, n))
    idxs = list(combinations(range(1, n + 1), k))
    terms = st.dictionaries(st.sampled_from(idxs), rational_coeffs, max_size=5)
    phi, xi = Form(n, k, data.draw(terms)), Polyvector(n, k, data.draw(terms))
    entry = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=5))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    rows = data.draw(square)
    if n and data.draw(st.booleans()):
        rows[0] = [-x for x in rows[0]]
    g = LinMap(rows)
    assume(g.det)
    a = data.draw(square)
    gram = [[sum(r[i] * r[j] for r in a) + (i == j) for j in range(n)] for i in range(n)]
    mu = InnerProduct(gram)  # a^T a + I, positive definite
    moved = act(g, phi)
    # for 2k >= n act takes the dual route; the pullback by g^-1 is the other
    assert moved == pullback(g.inverse(), phi)
    results = [moved, act_vectors(g, xi), pullback(g, phi), musical(mu, xi), musical_inv(mu, phi)]
    assert all((r.n, r.k) == (n, k) for r in results)
    # and so do reduce_form and infinitesimal_act, here by an A with A.den > 1
    a_rows = data.draw(square)
    if n:
        a_rows[0][0] += Fraction(1, 7)
        results.append(infinitesimal_act(LinMap(a_rows), phi))
    if k:
        results.append(reduce_form(phi).reduced)
    for r in results:
        clean = type(r)(r.n, r.k, dict(r.terms))
        assert r == clean and hash(r) == hash(clean)
        assert all(r.nums.values())
    # (g . phi)(g v_1, ..., g v_k) == phi(v_1, ..., v_k)
    vs = data.draw(st.lists(vectors(n), min_size=k, max_size=k))
    gvs = [[sum(g.entries[i][j] * v[j] for j in range(n)) for i in range(n)] for v in vs]
    assert evaluate_form(moved, gvs, det_gauss) == evaluate_form(phi, vs, det_gauss)


@settings(max_examples=30, deadline=None)
@given(phi=forms(4, 2), psi=forms(4, 2), v=vectors(4))
def test_interior_is_antiderivation(phi, psi, v):
    vv = Polyvector.from_coords(v)
    lhs = interior(vv, wedge(phi, psi))
    rhs = wedge(interior(vv, phi), psi) + wedge(phi, interior(vv, psi))
    assert lhs == rhs  # degree of phi is even here
    one = Form.basis(4, (1,)) + Form.basis(4, (3,), 2)
    lhs2 = interior(vv, wedge(one, psi))
    rhs2 = wedge(interior(vv, one), psi) - wedge(one, interior(vv, psi))
    assert lhs2 == rhs2


@settings(max_examples=30, deadline=None)
@given(phi=forms(5, 3), v=vectors(5), w=vectors(5))
def test_interior_anticommutes_and_evaluates(phi, v, w):
    vv, ww = Polyvector.from_coords(v), Polyvector.from_coords(w)
    assert interior(vv, interior(ww, phi)) == -interior(ww, interior(vv, phi))
    # contraction fills the first slot
    u = [1, 0, 2, -1, 1]
    assert evaluate_form(interior(vv, phi), [w, u]) == evaluate_form(phi, [v, w, u])


@settings(max_examples=30, deadline=None)
@given(phi=forms(5, 3), v=vectors(5), w=vectors(5))
def test_multi_interior_matches_iterated_contraction(phi, v, w):
    vv, ww = Polyvector.from_coords(v), Polyvector.from_coords(w)
    x = wedge(vv, ww)
    assert multi_interior(x, phi) == interior(ww, interior(vv, phi))
    assert multi_interior(Polyvector(5, 0, {(): Fraction(2)}), phi) == phi * 2


@settings(max_examples=25, deadline=None)
@given(g=invertible_maps(3), h=invertible_maps(3), phi=forms(3, 2))
def test_act_is_a_left_action(g, h, phi):
    assert act(g @ h, phi) == act(g, act(h, phi))
    assert act(LinMap.identity(3), phi) == phi
    assert act(g.inverse(), act(g, phi)) == phi
    assert act(g, phi) == pullback(g.inverse(), phi)


@settings(max_examples=25, deadline=None)
@given(g=invertible_maps(4), phi=forms(4, 2), xi=forms(4, 2, Polyvector))
def test_pairing_invariance(g, phi, xi):
    assert pairing(act(g, phi), act_vectors(g, xi)) == pairing(phi, xi)


@settings(max_examples=25, deadline=None)
@given(g=invertible_maps(3), xi=forms(3, 2, Polyvector), v=vectors(3))
def test_act_vectors_is_direct_image(g, xi, v):
    # on decomposables, act_vectors is the exterior power of apply
    vv = Polyvector.from_coords(v)
    w = Polyvector.from_coords([1, -2, 1])
    assert act_vectors(g, wedge(vv, w)) == wedge(g.apply(vv), g.apply(w))
    u = Polyvector.from_coords([0, 1, 3])
    top = wedge(wedge(vv, w), u)
    assert act_vectors(g, top) == wedge(wedge(g.apply(vv), g.apply(w)), g.apply(u))
    assert act_vectors(g @ g, xi) == act_vectors(g, act_vectors(g, xi))


@settings(max_examples=25, deadline=None)
@given(g=orientation_preserving_maps(3), h=orientation_preserving_maps(3), phi=forms(3, 2))
def test_twisted_act_composes(g, h, phi):
    assert g.det > 0 and h.det > 0
    for lam in (-1, 1, 2):
        assert twisted_act(g @ h, lam, phi) == twisted_act(g, lam, twisted_act(h, lam, phi))


@pytest.mark.parametrize("scale", [1, -1, Fraction(3, 7)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_poincare_round_trip(scale, data):
    om = VolumeForm(4, scale)
    xi = data.draw(forms(4, 2, Polyvector))
    psi = data.draw(forms(4, 3))
    assert poincare_inv(om, poincare(om, xi)) == xi
    assert poincare(om, poincare_inv(om, psi)) == psi


@settings(max_examples=25, deadline=None)
@given(xi=forms(4, 2, Polyvector))
def test_musical_round_trip(xi):
    flat = InnerProduct.identity(4)
    assert musical(flat, xi).terms == xi.terms
    assert musical_inv(flat, musical(flat, xi)) == xi
    r = Fraction(1, 3)
    for mu in (
        InnerProduct([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]),
        # non-integral, stored as integer rows over 12
        InnerProduct([[r, r, 0, 0], [r, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(3, 4)]]),
    ):
        assert musical_inv(mu, musical(mu, xi)) == xi


def test_musical_diagonal_frozen():
    mu = InnerProduct([[2, 0], [0, 3]])
    v = Polyvector.basis(2, (1,))
    assert musical(mu, v) == Form.basis(2, (1,), 2)
    x = Polyvector.basis(2, (1, 2))
    assert musical(mu, x) == Form.basis(2, (1, 2), 6)
    mu = InnerProduct([[2, 1], [1, 2]])
    assert musical(mu, v) == Form.basis(2, (1,), 2) + Form.basis(2, (2,))
    assert musical(mu, x) == Form.basis(2, (1, 2), 3)
    mu = InnerProduct([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
    assert musical(mu, x) == Form.basis(2, (1, 2), Fraction(1, 3))
    assert musical_inv(mu, Form.basis(2, (1, 2))) == Polyvector.basis(2, (1, 2), 3)


def test_linmap_det_matches_oracle(rng):
    for _ in range(15):
        mat = random_int_matrix(rng, 4, 4, bound=4)
        assert LinMap(mat).det == det_oracle(mat)
