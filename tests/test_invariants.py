import importlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formlab import (
    DegreeError,
    Form,
    FormError,
    LinMap,
    Polyvector,
    VolumeForm,
    act,
    act_vectors,
    catalog_entries,
    classify,
    fingerprint,
    infinitesimal_act,
    interior,
    is_multisymplectic,
    is_stable,
    kernel_vectors,
    length_and_sign,
    multi_interior,
    nilpotency_witness_degenerate,
    orbit_dimension,
    orientation_reversing_stabilizer_witness,
    poincare,
    poincare_inv,
    rank,
    rank_profile,
    reduce_form,
    stabilizer_algebra,
    wedge,
)
from formlab import linalg
from formlab.classify import killing_signature
from formlab.invariants import (
    _bryant_gram,
    _contraction_rows,
    _hitchin_trace,
    _kernel_reflection,
    _sextic_gram,
    _stabilizer_rows,
)
from formlab.linalg import inertia_fraction
from formlab.sampling import random_form, random_gl, random_nonzero_form, trial_rng

from conftest import (
    CARTAN_FORMS,
    cartan_form,
    contraction_rows_oracle,
    literature_form,
    nullspace_oracle,
    pfaffian_oracle,
    reduction_oracle,
    rref_rank,
    stabilizer_rows_oracle,
)


def e(n, *idx):
    return Form.basis(n, idx)


def ev(n, *idx):
    return Polyvector.basis(n, idx)


# ------------------------------------------------------------------- rank


def test_rank_frozen():
    assert rank(Form.zero(5, 2)) == 0
    assert rank(e(7, 1, 2, 3)) == 3
    assert rank(e(6, 1, 2, 3) + e(6, 1, 4, 5)) == 5
    assert rank(e(4, 1, 2) + e(4, 3, 4)) == 4
    assert rank(e(3, 1)) == 1
    phi0 = (
        e(7, 1, 2, 3) + e(7, 1, 4, 5) + e(7, 1, 6, 7) + e(7, 2, 4, 6)
        - e(7, 2, 5, 7) + e(7, 3, 4, 7) + e(7, 3, 5, 6)
    )
    assert rank(phi0) == 7
    assert is_multisymplectic(phi0)
    assert not is_multisymplectic(e(7, 1, 2, 3))


def test_rank_is_action_invariant():
    phi = e(6, 1, 2, 3) + e(6, 1, 4, 5)
    for trial in range(10):
        g = random_gl(6, trial_rng(5, trial), det_sign=1 if trial % 2 else -1)
        assert rank(act(g, phi)) == 5


def test_kernel_vectors_contract_to_zero():
    phi = e(6, 1, 2, 3) + e(6, 1, 4, 5)
    kv = kernel_vectors(phi)
    assert len(kv) == 1
    for v in kv:
        assert interior(v, phi).is_zero
    g = random_gl(6, trial_rng(6, 0))
    moved = act(g, phi)
    for v in kernel_vectors(moved):
        assert interior(v, moved).is_zero


# -------------------------------------------------------------- reduction


def test_reduce_frozen_shape():
    phi = e(6, 1, 2, 3) + e(6, 1, 4, 5)
    red = reduce_form(phi)
    assert red.r == 5
    assert red.reduced.n == 5 and red.reduced.k == 3
    assert rank(red.reduced) == 5
    assert red.reconstruct() == phi
    assert len(red.kernel) == 1 and red.frame.n == 6


def test_reduce_after_mixing_coordinates():
    base = e(7, 1, 2) + e(7, 3, 4)
    for trial in range(8):
        g = random_gl(7, trial_rng(7, trial))
        phi = act(g, base)
        red = reduce_form(phi)
        assert red.r == 4
        assert rank(red.reduced) == 4
        assert red.reconstruct() == phi


def test_reduce_zero_and_full_rank():
    red = reduce_form(Form.zero(4, 2))
    assert red.r == 0 and red.reduced.is_zero and red.reconstruct().is_zero
    phi = e(4, 1, 2) + e(4, 3, 4)
    red = reduce_form(phi)
    assert red.r == 4 and red.reduced == phi
    with pytest.raises(DegreeError):
        reduce_form(Form(3, 0, {(): Fraction(1)}))


def _moved_rational_form(n, rng, zero=False):
    # a form on R^r, r <= n, with rational coefficients, inflated to R^n and
    # moved by a random g; r < n unless n = 1
    r = rng.randrange(1, n) if n > 1 else 1
    k = 1 + rng.randrange(r)
    terms = {}
    if not zero:
        for idx in rng.sample(list(combinations(range(1, r + 1), k)), min(comb(r, k), 6)):
            terms[idx] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 5))
    g = random_gl(n, rng, det_sign=rng.choice((1, -1)))
    return act(g, Form(n, k, terms))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), zero=st.booleans(), seed=st.integers(0, 2**32))
def test_reduction_is_the_frame_pullback(n, zero, seed):
    # phi_r, read off phi's terms on the pivot coordinates, is frame^* phi
    phi = _moved_rational_form(n, random.Random(seed), zero)
    reduced, frame = reduction_oracle(phi)
    red = reduce_form(phi)
    assert red.reduced == reduced and red.r == reduced.n
    assert red.frame == frame
    assert red.reconstruct() == phi


def test_reduction_takes_no_pullback_and_builds_no_matrix(monkeypatch):
    cases = [Form.zero(4, 2), e(4, 1, 2) + e(4, 3, 4), e(6, 1, 2, 3) + e(6, 1, 4, 5)]
    cases += [_moved_rational_form(2 + t % 8, trial_rng(23, t)) for t in range(30)]
    expected = [reduction_oracle(phi)[0] for phi in cases]

    def no_matrix(*args):
        raise AssertionError("reduce_form took a pullback or built a matrix")

    class NoLinMap(LinMap):
        def __init__(self, entries):
            no_matrix()

    monkeypatch.setattr(importlib.import_module("formlab.exterior"), "_substitute", no_matrix)
    monkeypatch.setattr(importlib.import_module("formlab.invariants"), "LinMap", NoLinMap)
    for phi, reduced in zip(cases, expected):
        red = reduce_form(phi)
        assert red.reduced == reduced and red.r == reduced.n


# ------------------------------------------------------------- stabilizers


def test_stabilizer_dimensions_frozen():
    assert stabilizer_algebra(e(2, 1, 2)).dim == 3
    assert stabilizer_algebra(e(4, 1, 2) + e(4, 3, 4)).dim == 10
    assert stabilizer_algebra(Form.zero(3, 2)).dim == 9
    assert orbit_dimension(e(2, 1, 2)) == 1
    assert is_stable(e(2, 1, 2))
    assert not is_stable(e(4, 1, 2))


def test_orbit_dimension_matches_stabilizer_on_degenerate_forms():
    # orbit_dimension and is_stable solve degenerate forms at rank r
    forms = [e(5, 1), e(4, 1, 2, 3), e(7, 1, 2, 3) + e(7, 1, 4, 5), Form.zero(4, 2)]
    for trial in range(12):
        rng = trial_rng(63, trial)
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 2)
        small = random_nonzero_form(rng.randint(k, n - 1), k, 3, rng)
        g = random_gl(n, rng, det_sign=rng.choice((1, -1)))
        forms.append(act(g, Form(n, k, dict(small.terms))))
    for phi in forms:
        n = phi.n
        assert rank(phi) < n
        want = n * n - stabilizer_algebra(phi).dim
        assert orbit_dimension(phi) == want
        assert is_stable(phi) is (want == comb(n, phi.k))


def test_orbit_dimension_builds_no_killing_gram(monkeypatch):
    # orbit_dimension and is_stable read the stabilizer dimension only: a
    # solved degenerate form, a solved full-rank form and a zero form
    forms = [
        e(9, 1, 2, 3) + e(9, 1, 4, 5) + 3 * e(9, 2, 4, 5),
        e(8, 1, 2, 3, 4) + e(8, 5, 6, 7, 8),
        Form.zero(5, 3),
    ]
    assert [rank(phi) for phi in forms] == [5, 8, 0]
    want = [phi.n**2 - stabilizer_algebra(phi).dim for phi in forms]

    def no_gram(*args):
        raise AssertionError("a Killing Gram was built")

    monkeypatch.setattr(importlib.import_module("formlab.invariants"), "_killing_gram", no_gram)
    for phi, d in zip(forms, want):
        assert orbit_dimension(phi) == d
        assert is_stable(phi) is (d == comb(phi.n, phi.k))
        # the patch is live: the fingerprint of the same form builds one
        with pytest.raises(AssertionError, match="a Killing Gram was built"):
            fingerprint(phi)


def test_stabilizer_dimension_is_action_invariant():
    phi = e(6, 1, 2, 3) - e(6, 3, 4, 5) + e(6, 2, 4, 6) - e(6, 1, 5, 6)
    d = stabilizer_algebra(phi).dim
    for trial in range(5):
        g = random_gl(6, trial_rng(8, trial), det_sign=-1)
        assert stabilizer_algebra(act(g, phi)).dim == d


def test_stabilizer_short_on_leading_rows_needs_no_bareiss(monkeypatch):
    # the (8,4) form of the benchmark's census operation 3 at seed 0: the
    # first 64 of its 70 stabilizer equations have rank 63 modulo P, all 70
    # have rank 64, so stab = 0 is certified without Bareiss, and with no
    # row packed twice
    rng = random.Random("formlab-bench/census/0/3")
    terms = {idx: c for idx in combinations(range(1, 9), 4) if (c := rng.randint(-9, 9))}
    phi = Form(8, 4, terms)
    rows, ncols = _stabilizer_rows(list(phi.nums.items()), 8)
    assert (len(rows), ncols) == (70, 64)
    assert linalg._rank_mod_p(rows[:ncols], ncols) == 63

    def no_bareiss(*args):
        raise AssertionError("a full-rank stabilizer system reached Bareiss")

    packed = []
    pack = linalg._pack

    def spy(residues):
        packed.append(len(residues))
        return pack(residues)

    monkeypatch.setattr(linalg, "row_echelon_int", no_bareiss)
    monkeypatch.setattr(linalg, "_pack", spy)
    assert stabilizer_algebra(phi).dim == 0
    # a row is packed at full length, a pivot at the length of its column
    assert 0 < packed.count(ncols) <= 70


def _indices(n, k):
    return list(combinations(range(1, n + 1), k))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_table_rows_match_naive_builders(data):
    # the contraction rows, read from the per-index tables, against every
    # column met by every term, as a multiset; the stabilizer rows row for
    # row and in the same order as the loop over slots and gaps
    cls = data.draw(st.sampled_from([Form, Polyvector]))
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, n))
    idxs = data.draw(st.lists(st.sampled_from(_indices(n, k)), max_size=12, unique=True))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 6, 7)))
    t = cls(n, k, {idx: data.draw(coeff) for idx in idxs})
    for j in range(1, k + 1):
        rows, ncols = _contraction_rows(t, j)
        want, want_cols = contraction_rows_oracle(t, j)
        assert ncols == want_cols == comb(n, j)
        assert sorted(rows) == sorted(want)
    terms = list(t.nums.items())
    assert _stabilizer_rows(terms, n) == stabilizer_rows_oracle(terms, n)


def test_tables_fill_only_the_indices_met(monkeypatch):
    # the first classify of a sparse 6-form on R^12 fills the (12, 6) tables
    # for its own three indices and no other
    invariants = importlib.import_module("formlab.invariants")
    monkeypatch.setattr(invariants, "_CONTRACTIONS", {})
    monkeypatch.setattr(invariants, "_STABILIZERS", {})
    catalog_entries.cache_clear()
    terms = {(1, 2, 3, 4, 5, 6): 1, (7, 8, 9, 10, 11, 12): 1, (1, 3, 5, 7, 9, 11): 2}
    report = classify(Form(12, 6, terms))
    assert report.fingerprint.stab_dim == 51
    tables = [t for (n, k, _), t in invariants._CONTRACTIONS.items() if (n, k) == (12, 6)]
    assert len(tables) == 3
    assert all(t.keys() == terms.keys() for t in tables)
    assert invariants._STABILIZERS[12].keys() == terms.keys()
    # every entry filled on R^n, n <= 7, gives the rows of the oracle
    for n in range(1, 8):
        for k in range(n + 1):
            for idx in _indices(n, k):
                assert _stabilizer_rows([(idx, 1)], n) == stabilizer_rows_oracle([(idx, 1)], n)


@pytest.mark.parametrize("cls", [Form, Polyvector])
def test_integer_builders_match_oracles_on_rational_input(cls):
    # The contraction and stabilizer builders scale by the denominator lcm.
    # The oracles take the rational coefficients of multi_interior(e_J, phi)
    # and infinitesimal_act(E_ib, phi) column by column.  multi_interior
    # shares no code with the builders; infinitesimal_act reads the same
    # stabilizer table on the unscaled terms, so here it checks the scaling
    # and the nullspace, while test_table_rows_match_naive_builders checks
    # the table and test_infinitesimal_matches_pullback_derivative the
    # action.  Contraction sees only the coefficient pattern, so a
    # polyvector is checked against the form with the same terms.
    rng = random.Random(4104)
    for n in range(1, 7):
        for k in range(n + 1):
            terms = {
                idx: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 10)))
                for idx in _indices(n, k)
                if rng.random() < 0.6
            }
            t = cls(n, k, terms)
            phi = Form(n, k, terms)
            oracle_rows = {}
            for j in range(1, k + 1):
                cols = [multi_interior(ev(n, *J), phi) for J in _indices(n, j)]
                oracle_rows[j] = [[c.coeff(I) for c in cols] for I in _indices(n, k - j)]
            assert rank_profile(t) == tuple(
                rref_rank(oracle_rows[j], comb(n, j)) for j in range(1, k)
            )
            if k >= 1:
                assert rank(t) == rref_rank(oracle_rows[1], n)
                kernel, _ = nullspace_oracle(oracle_rows[1], n)
                assert [v.coords() for v in kernel_vectors(phi)] == kernel
            units = [
                LinMap([[int((r, c) == (i, b)) for c in range(n)] for r in range(n)])
                for i in range(n)
                for b in range(n)
            ]
            moved = [infinitesimal_act(E, phi) for E in units]
            rows = [[m.coeff(I) for m in moved] for I in _indices(n, k)]
            S = stabilizer_algebra(phi)
            assert ([list(v) for v in S._flat], list(S._free)) == nullspace_oracle(rows, n * n)
            assert S.dim == len(S._flat)
            assert all(infinitesimal_act(A, phi).is_zero for A in S.basis)


# ------------------------------------------------------------ length and sign


def sympl(n, l, coeffs=None):
    """poincare dual of a rank-2l coordinate bivector with given pair coefficients."""
    xi = Polyvector.zero(n, 2)
    for i in range(l):
        c = 1 if coeffs is None else coeffs[i]
        xi = xi + Polyvector.basis(n, (2 * i + 1, 2 * i + 2), c)
    return poincare(VolumeForm(n), xi)


def test_length_and_sign_frozen():
    om6, om4 = VolumeForm(6), VolumeForm(4)
    full = sympl(6, 3)
    ls = length_and_sign(full, om6)
    assert (ls.length, ls.lam, ls.sign) == (3, 1, 1)
    ls = length_and_sign(sympl(6, 3, [-1, 1, 1]), om6)
    assert (ls.length, ls.lam, ls.sign) == (3, -1, -1)
    ls = length_and_sign(sympl(4, 2), om4)
    assert (ls.length, ls.lam, ls.sign) == (2, 1, 1)
    ls = length_and_sign(sympl(4, 2, [-1, 1]), om4)
    assert (ls.length, ls.lam, ls.sign) == (2, -1, 1)
    ls = length_and_sign(sympl(4, 1), om4)
    assert (ls.length, ls.lam, ls.sign) == (1, None, 1)
    ls = length_and_sign(Form.zero(4, 2), om4)
    assert (ls.length, ls.lam, ls.sign) == (0, None, 0)
    with pytest.raises(DegreeError):
        length_and_sign(e(4, 1, 2, 3), om4)


rational = st.builds(
    Fraction, st.integers(-(2**64), 2**64), st.sampled_from((1, 2, 3, 7, 2**61 - 1))
)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_length_and_sign_reads_the_pfaffian(data):
    # random rational (n-2)-forms and volumes, n = 3..12: length is half the
    # rank of the dual bivector xi that poincare_inv gives, and at maximal
    # length (even n only) lam is the sign of scale * Pf(xi)
    n = data.draw(st.integers(3, 12))
    terms = {
        idx: data.draw(st.one_of(st.just(0), rational))
        for idx in combinations(range(1, n + 1), n - 2)
    }
    phi = Form(n, n - 2, terms)
    scale = data.draw(rational.filter(bool))
    omega = VolumeForm(n, scale)
    ls = length_and_sign(phi, omega)
    xi = poincare_inv(omega, phi)
    S = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in xi.terms.items():
        S[i - 1][j - 1], S[j - 1][i - 1] = c, -c
    assert 2 * ls.length == rref_rank(S, n)
    if phi.is_zero:
        assert (ls.lam, ls.sign) == (None, 0)
    elif 2 * ls.length < n:
        assert (ls.lam, ls.sign) == (None, 1)
    else:
        lam = 1 if scale * pfaffian_oracle(S) > 0 else -1
        assert (ls.lam, ls.sign) == (lam, lam if ls.length % 2 else 1)


def test_volume_rescaling_law():
    # replacing Omega by c*Omega multiplies lam by c^(1 - length): at odd
    # length lam ignores the volume choice entirely, at even length only the
    # orientation of Omega matters and then sign is 1 anyway
    phi = sympl(6, 3)
    for scale in (1, Fraction(7, 2), -1, Fraction(-2, 5)):
        ls = length_and_sign(phi, VolumeForm(6, scale))
        assert (ls.length, ls.lam, ls.sign) == (3, 1, 1)
    phi4 = sympl(4, 2)
    assert length_and_sign(phi4, VolumeForm(4, 5)).lam == 1
    assert length_and_sign(phi4, VolumeForm(4, -5)).lam == -1
    assert length_and_sign(phi4, VolumeForm(4, -5)).sign == 1


@pytest.mark.parametrize(
    "n,l",
    [(4, 1), (4, 2), (5, 2), (6, 3), (7, 3)],
)
def test_length_sign_transformation_law(n, l):
    """length always invariant; lam obeys lam' = lam * det(g)^(1 - l); sign invariant."""
    om = VolumeForm(n)
    phi = sympl(n, l)
    base = length_and_sign(phi, om)
    maximal = 2 * l == n
    for trial in range(12):
        det_sign = 1 if trial % 2 else -1
        g = random_gl(n, trial_rng(40 + n, trial), det_sign=det_sign)
        moved = length_and_sign(act(g, phi), om)
        assert moved.length == base.length == l
        assert moved.sign == base.sign
        if not maximal:
            assert moved.lam is None
            continue
        expected = base.lam * det_sign ** (1 - l)
        assert moved.lam == expected
        if l % 2:
            assert moved.lam == base.lam  # odd length: lam is a full invariant


# ------------------------------------------------------- degeneration witnesses


def test_nilpotency_witness_frozen_r9():
    x = ev(9, 1, 2, 3)
    w = nilpotency_witness_degenerate(x)
    assert w.exponents == (6, 6, 6, -3, -3, -3, -3, -3, -3)
    assert sum(w.exponents) == 0
    assert w.rate == 18
    for t in (2, 3):
        g = w.curve(t)
        assert g.det == 1
        assert act_vectors(g, x) == x * Fraction(t) ** 18


def test_nilpotency_witness_small_and_mixed():
    x = ev(3, 1, 2)
    w = nilpotency_witness_degenerate(x)
    assert w.rate == 2 and sum(w.exponents) == 0
    assert act_vectors(w.curve(2), x) == x * 4

    # support not aligned with coordinates
    y = wedge(Polyvector.from_coords([1, 1, 0, 0, 0]), Polyvector.from_coords([0, 0, 1, 0, 0]))
    w = nilpotency_witness_degenerate(y)
    assert w.rate == 2 * 3
    g = w.curve(3)
    assert g.det == 1
    assert act_vectors(g, y) == y * Fraction(3) ** 6


def test_nilpotency_witness_rejects_nondegenerate_and_zero():
    with pytest.raises(FormError):
        nilpotency_witness_degenerate(ev(3, 1, 2, 3))
    with pytest.raises(FormError):
        nilpotency_witness_degenerate(Polyvector.zero(3, 2))


def test_orientation_reversing_witness():
    phi = e(5, 1, 2) + e(5, 3, 4)
    g = orientation_reversing_stabilizer_witness(phi)
    assert g.det == -1
    assert act(g, phi) == phi
    # works after mixing coordinates too
    h = random_gl(5, trial_rng(9, 4))
    moved = act(h, phi)
    g2 = orientation_reversing_stabilizer_witness(moved)
    assert g2.det == -1
    assert act(g2, moved) == moved
    z = orientation_reversing_stabilizer_witness(Form.zero(3, 2))
    assert z.det == -1
    with pytest.raises(FormError):
        orientation_reversing_stabilizer_witness(e(4, 1, 2) + e(4, 3, 4))


def _conjugated_reflection(phi):
    """Oracle: reduce_form's frame . diag(1^r, -1, 1, ...) . frame^{-1}."""
    red = reduce_form(phi)
    n, r = phi.n, red.r
    reflect = LinMap.diagonal([1] * r + [-1] + [1] * (n - r - 1))
    return red, red.frame @ reflect @ red.frame.inverse()


def _moved_degenerate_form(n, rng):
    # a form on R^r, r < n, inflated to R^n and moved by a random g
    r = 1 + rng.randrange(n - 1)
    k = 1 + rng.randrange(r)
    small = random_nonzero_form(r, k, 5, rng)
    g = random_gl(n, rng, det_sign=rng.choice((1, -1)))
    return act(g, Form(n, k, dict(small.terms)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), zero=st.booleans(), seed=st.integers(0, 2**32))
def test_kernel_reflection_is_the_conjugated_reflection(n, zero, seed):
    rng = random.Random(seed)
    phi = Form.zero(n, 1 + rng.randrange(n)) if zero else _moved_degenerate_form(n, rng)
    red, oracle = _conjugated_reflection(phi)
    g = _kernel_reflection([row[red.r] for row in red.frame.entries])
    assert g == oracle
    assert g.det == -1
    assert g @ g == LinMap.identity(n)
    assert act(g, phi) == phi


def test_orientation_reversing_witness_takes_no_reduction(monkeypatch):
    cases = [(Form.zero(3, 2), LinMap.diagonal([-1, 1, 1]))]
    for trial in range(30):
        phi = _moved_degenerate_form(3 + trial % 5, trial_rng(96, trial))
        cases.append((phi, _conjugated_reflection(phi)[1]))

    def no_reduction(*args):
        raise AssertionError("the witness reduced the form")

    invariants = importlib.import_module("formlab.invariants")
    monkeypatch.setattr(invariants, "reduce_form", no_reduction)
    monkeypatch.setattr(importlib.import_module("formlab.exterior"), "_substitute", no_reduction)
    for phi, oracle in cases:
        assert orientation_reversing_stabilizer_witness(phi) == oracle


# ------------------------------------------ Hitchin's lambda and Bryant's B


def _contractions(phi):
    return [interior(Polyvector.basis(phi.n, (v,)), phi) for v in range(1, phi.n + 1)]


def hitchin_trace_oracle(phi):
    """tr K^2 with K(v) the vector poincare_inv dualizes i_v phi ^ phi to."""
    omega = VolumeForm(6)
    K = [poincare_inv(omega, wedge(c, phi)).coords() for c in _contractions(phi)]
    return sum(K[w][u] * K[u][w] for w in range(6) for u in range(6))


def bryant_gram_oracle(phi):
    cont = _contractions(phi)
    top = tuple(range(1, 8))
    return [[wedge(wedge(a, b), phi).coeff(top) for b in cont] for a in cont]


def bryant_inertia(phi):
    return inertia_fraction(_bryant_gram(list(phi.nums.items())))


def _three_form(data, n):
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
    index = st.sampled_from(list(combinations(range(1, n + 1), 3)))
    return Form(n, 3, data.draw(st.dictionaries(index, coeffs, min_size=1, max_size=comb(n, 3))))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hitchin_trace_matches_poincare_oracle(data):
    # nums scales phi by c = den > 0, which multiplies tr K^2 by c^4
    phi = _three_form(data, 6)
    terms = list(phi.nums.items())
    c = terms[0][1] / phi.terms[terms[0][0]]
    assert _hitchin_trace(terms) == c**4 * hitchin_trace_oracle(phi)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bryant_gram_matches_wedge_oracle(data):
    # B scales by c^3
    phi = _three_form(data, 7)
    terms = list(phi.nums.items())
    c = terms[0][1] / phi.terms[terms[0][0]]
    assert _bryant_gram(terms) == [[c**3 * x for x in row] for row in bryant_gram_oracle(phi)]


def test_hitchin_and_bryant_on_the_catalog():
    # lambda = tr K^2 / 6: 1 for split type, -4 for elliptic, 0 off rank 6
    for name, lam in (("split-2", 1), ("elliptic-6", -4), ("decomposable", 0)):
        rep = next(entry.representative for entry in catalog_entries(6, 3) if entry.name == name)
        assert _hitchin_trace(list(rep.nums.items())) == 6 * lam
    phi = e(6, 1, 2, 6) - e(6, 2, 3, 4) + e(6, 1, 3, 5)  # rank 6, lambda = 0
    assert rank(phi) == 6 and _hitchin_trace(list(phi.nums.items())) == 0
    # B is definite on the compact form, of signature (3, 4) on the split one
    assert bryant_inertia(literature_form("G2-compact-7")) == (7, 0, 0)
    assert bryant_inertia(literature_form("G2-tilde-7")) == (3, 4, 0)
    assert bryant_inertia(e(7, 1, 2, 3) + e(7, 1, 4, 5) + e(7, 1, 6, 7))[2] > 0


@pytest.mark.parametrize("n", [6, 7])
def test_hitchin_and_bryant_signs_are_action_invariant(n):
    # g multiplies tr K^2 by det(g)^-2, and B by det(g)^-1 up to congruence
    for t in range(6):
        phi = random_form(n, 3, 9, trial_rng(66, t))
        moved = act(random_gl(n, trial_rng(67, t), det_sign=(-1) ** t), phi)
        if n == 6:
            a, b = (_hitchin_trace(list(x.nums.items())) for x in (phi, moved))
            assert a and (a > 0) == (b > 0)
        else:
            (p, q, z), (pm, qm, zm) = map(bryant_inertia, (phi, moved))
            assert z == zm == 0 and {p, q} == {pm, qm}


# ------------------------------------------- the sextic Q of 3-forms on R^8


def sextic_gram_oracle(phi):
    """tr(M_x M_y), column z of M_x the vector poincare_inv dualizes
    i_x phi ^ i_z phi ^ phi to."""
    omega = VolumeForm(8)
    cont = _contractions(phi)
    M = [[None] * 8 for _ in range(8)]
    for x in range(8):
        for z in range(x, 8):
            M[x][z] = M[z][x] = poincare_inv(omega, wedge(wedge(cont[x], cont[z]), phi)).coords()
    return [
        [sum(M[x][z][u] * M[y][u][z] for u in range(8) for z in range(8)) for y in range(8)]
        for x in range(8)
    ]


def sextic_inertia(phi):
    return inertia_fraction(_sextic_gram(list(phi.nums.items())))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sextic_gram_matches_wedge_oracle(data):
    # Q scales by c^6
    if data.draw(st.booleans()):
        coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
        phi = Form(8, 3, {idx: data.draw(coeffs) for idx in combinations(range(1, 9), 3)})
    else:
        phi = _three_form(data, 8)
    terms = list(phi.nums.items())
    c = terms[0][1] / phi.terms[terms[0][0]]
    assert _sextic_gram(terms) == [[c**6 * x for x in row] for row in sextic_gram_oracle(phi)]


def _su3_basis(mixed):
    """i(E_jj - E_kk), then E_jk - E_kj, i(E_jk + E_kj) per pair j < k; a pair
    in `mixed` gets E_jk + E_kj, i(E_jk - E_kj) instead."""

    def E(j, k, c=1):
        m = [[0] * 3 for _ in range(3)]
        m[j - 1][k - 1] = c
        return m

    def add(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def times(c, a):
        return [[c * x for x in row] for row in a]

    basis = [times(1j, add(E(1, 1), E(2, 2, -1))), times(1j, add(E(2, 2), E(3, 3, -1)))]
    for j, k in ((1, 2), (1, 3), (2, 3)):
        s = -1 if (j, k) in mixed else 1
        basis += [add(E(j, k), E(k, j, -s)), times(1j, add(E(j, k), E(k, j, s)))]
    return basis


def _cartan_terms(basis):
    """K(X, [Y, Z]) with K(X, Y) = 6 tr(XY), on a basis of 3 x 3 matrices."""

    def mul(a, b):
        return [[sum(a[i][l] * b[l][j] for l in range(3)) for j in range(3)] for i in range(3)]

    terms = {}
    for idx in combinations(range(1, 9), 3):
        x, y, z = (basis[i - 1] for i in idx)
        yz, zy = mul(y, z), mul(z, y)
        bracket = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(yz, zy)]
        v = 6 * sum(mul(x, bracket)[i][i] for i in range(3))
        assert v == int(v.real)  # small Gaussian integers: exact in floating point
        if v:
            terms[idx] = int(v.real)
    return terms


def test_cartan_forms_are_killing_of_bracket():
    # H_1, H_2, E_12, E_13, E_23, E_21, E_31, E_32
    sl3 = [[[int(i == j == a) - int(i == j == a + 1) for j in range(3)] for i in range(3)] for a in range(2)]
    for j, k in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)):
        sl3.append([[int((a, b) == (j - 1, k - 1)) for b in range(3)] for a in range(3)])
    assert _cartan_terms(sl3) == CARTAN_FORMS["sl3R"]
    assert _cartan_terms(_su3_basis(())) == CARTAN_FORMS["su3"]
    assert _cartan_terms(_su3_basis(((1, 3), (2, 3)))) == CARTAN_FORMS["su21"]


@pytest.mark.parametrize(
    "name, q, killing",
    [("sl3R", (5, 3, 0), (5, 3, 0)), ("su21", (4, 4, 0), (4, 4, 0)), ("su3", (8, 0, 0), (0, 8, 0))],
)
def test_sextic_inertia_on_the_cartan_forms(name, q, killing):
    # each form is fixed by its algebra acting by ad, so stab = 8 and the
    # Killing signature is that of the real form; Q's inertia names the orbit
    phi = cartan_form(name)
    S = stabilizer_algebra(phi)
    assert sextic_inertia(phi) == q
    assert (S.dim, killing_signature(S)) == (8, killing)
    assert is_stable(phi)


def test_sextic_inertia_is_action_invariant():
    # g multiplies Q, up to congruence, by det(g)^-2 > 0
    forms = [random_form(8, 3, 9, trial_rng(73, t)) for t in range(4)]
    forms += [cartan_form(name) for name in CARTAN_FORMS]
    for t, phi in enumerate(forms):
        moved = act(random_gl(8, trial_rng(74, t), det_sign=(-1) ** t), phi)
        q = sextic_inertia(phi)
        assert q[2] == 0 and sextic_inertia(moved) == q


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sextic_q_is_nondegenerate_exactly_on_stable_forms(data):
    # det Q != 0 exactly when stab(phi_8) has dimension 8 (the proof is in
    # invariants.fingerprint); sparse forms fall on both sides
    triples = list(combinations(range(1, 9), 3))
    coeffs = st.sampled_from((-2, -1, 1, 2))
    terms = data.draw(st.dictionaries(st.sampled_from(triples), coeffs, min_size=4, max_size=14))
    assume(rank(Form(8, 3, terms)) == 8)
    n = data.draw(st.integers(8, 10))
    phi = Form(n, 3, terms)
    if data.draw(st.booleans()):
        phi = act(random_gl(n, trial_rng(data.draw(st.integers(0, 2**16)), n)), phi)
    red = reduce_form(phi)
    assert red.r == 8
    _, _, z = sextic_inertia(red.reduced)
    assert (z == 0) == (stabilizer_algebra(red.reduced).dim == 8)
