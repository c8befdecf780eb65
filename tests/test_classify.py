import hashlib
import importlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import formlab
from formlab import (
    DegreeError,
    Fingerprint,
    Form,
    FormError,
    LinMap,
    OrbitReport,
    VolumeForm,
    act,
    catalog_entries,
    classify,
    classify_codim_two,
    classify_two_form,
    fingerprint,
    is_stable,
    killing_signature,
    match_catalog,
    orbit_dimension,
    rank,
    rank_profile,
    sample_orbit_statistics,
    stabilizer_algebra,
    wedge,
)
from formlab.classify import (
    MAX_DIMENSION,
    _block_swap_reversal,
    _component_count,
    _diagonal_reversal,
    _martinet_form,
)
from formlab.cli import main
from formlab.invariants import _killing_gram, _sextic_gram
from formlab.linalg import inertia_fraction
from formlab.sampling import random_form, random_gl, trial_rng

from conftest import (
    CARTAN_FORMS,
    cartan_form,
    killing_gram_oracle,
    literature_form,
    random_int_matrix,
    rank_profile_oracle,
)


def e(n, *idx):
    return Form.basis(n, idx)


# ------------------------------------------------------------- rank profile


def test_rank_profile_frozen():
    assert rank_profile(e(4, 1)) == ()
    assert rank_profile(e(4, 1, 2) + e(4, 3, 4)) == (4,)
    assert rank_profile(e(7, 1, 2, 3)) == (3, 3)
    assert rank_profile(literature_form("G2-tilde-7")) == (7, 7)
    assert rank_profile(e(4, 1, 2, 3, 4)) == (4, 6, 4)
    assert rank_profile(Form.zero(5, 3)) == (0, 0)


def test_rank_profile_top_degree_certified_modulo_p(monkeypatch):
    # the contraction maps of e^{1...12} are signed permutations of full rank,
    # so the certificate modulo a prime decides every degree and no Bareiss
    # pass runs
    def no_bareiss(*args):
        raise AssertionError("a full-rank contraction map reached Bareiss")

    monkeypatch.setattr(importlib.import_module("formlab.linalg"), "row_echelon_int", no_bareiss)
    top = Form(12, 12, {tuple(range(1, 13)): 1})
    assert rank_profile(top) == tuple(comb(12, j) for j in range(1, 12))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_profile_matches_all_degree_oracle(data):
    # rank_profile solves j <= k/2 only and mirrors the rest
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(0, n))
    index = st.sampled_from(list(combinations(range(1, n + 1), k)))
    terms = data.draw(st.dictionaries(index, st.integers(-3, 3).filter(bool), max_size=12))
    phi = Form(n, k, terms)
    if data.draw(st.booleans()):
        phi = act(random_gl(n, trial_rng(data.draw(st.integers(0, 2**16)), n)), phi)
    assert rank_profile(phi) == rank_profile_oracle(phi)


def test_rank_profile_is_action_invariant():
    phi = e(6, 1, 2, 3) + e(6, 1, 4, 5)
    base = rank_profile(phi)
    for trial in range(6):
        g = random_gl(6, trial_rng(21, trial), det_sign=1 if trial % 2 else -1)
        assert rank_profile(act(g, phi)) == base


# ------------------------------------------------------- killing signatures


def test_killing_frozen_small_algebras():
    # stabilizer of the area form on R^2 is sl(2): signature (2, 1, 0)
    assert killing_signature(stabilizer_algebra(e(2, 1, 2))) == (2, 1, 0)
    # stabilizer of a symplectic form on R^4 is sp(4): (6, 4, 0)
    assert killing_signature(stabilizer_algebra(e(4, 1, 2) + e(4, 3, 4))) == (6, 4, 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_killing_symplectic_closed_form_on_moved_forms(m, rng):
    # a full-rank 2-form on R^{2m} moved by a random integer g (not unimodular)
    # has stabilizer sp(2m, R), Killing signature (m(m+1), m^2, 0); its Gram is
    # dense, with entries of up to 250 bits at m = 4 (s = 36)
    n = 2 * m
    phi = sum((e(n, 2 * i - 1, 2 * i) for i in range(2, m + 1)), e(n, 1, 2))
    while True:
        g = LinMap(random_int_matrix(rng, n, n, bound=3))
        if g.det:
            break
    S = stabilizer_algebra(act(g, phi))
    assert S.dim == m * (2 * m + 1)
    assert killing_signature(S) == (m * (m + 1), m * m, 0)


@pytest.mark.parametrize("n,expected", [(2, (2, 1, 1)), (3, (5, 3, 1))])
def test_killing_gl_closed_form_matches_general_path(n, expected):
    S = stabilizer_algebra(Form.zero(n, 2))
    assert S.dim == n * n
    assert killing_signature(S) == expected


def test_killing_exceptional_values():
    assert killing_signature(stabilizer_algebra(literature_form("G2-tilde-7"))) == (8, 6, 0)
    assert killing_signature(stabilizer_algebra(literature_form("G2-compact-7"))) == (0, 14, 0)
    assert killing_signature(stabilizer_algebra(literature_form("elliptic-6"))) == (8, 8, 0)


def test_killing_decomposable_at_dimension_cap():
    # the largest stabilizer at n = 12; fingerprint solves it at rank 3
    S = stabilizer_algebra(e(12, 1, 2, 3))
    assert S.dim == 116
    assert killing_signature(S) == (50, 39, 27)
    assert fingerprint(e(12, 1, 2, 3)) == Fingerprint((3, 3), 116, (50, 39, 27))


def _assert_gram_matches_oracle(phi):
    S = stabilizer_algebra(phi)
    gram, _ = _killing_gram(S.n, S._flat, S._free)
    oracle = killing_gram_oracle(S)
    s = S.dim
    nonzero = [(t, u) for t in range(s) for u in range(s) if oracle[t][u]]
    if not nonzero:
        assert all(x == 0 for row in gram for x in row)
        return
    t, u = nonzero[0]
    scale = gram[t][u] / oracle[t][u]
    assert scale > 0
    assert gram == [[scale * x for x in row] for row in oracle]


def _rank6_in_r9(moved):
    phi = Form(9, 3, random_form(6, 3, 4, trial_rng(61, 0)).terms)
    assert rank(phi) == 6
    return act(random_gl(9, trial_rng(61, 1)), phi) if moved else phi


@pytest.mark.parametrize(
    "phi",
    [
        pytest.param(random_form(6, 3, 9, trial_rng(60, 6)), id="generic-6-3"),
        pytest.param(random_form(7, 3, 9, trial_rng(60, 7)), id="generic-7-3"),
        pytest.param(random_form(8, 3, 9, trial_rng(60, 8)), id="generic-8-3"),
        pytest.param(_rank6_in_r9(moved=False), id="rank6-in-r9"),
        pytest.param(_rank6_in_r9(moved=True), id="rank6-in-r9-moved"),
        pytest.param(
            Form(
                6,
                3,
                {
                    (1, 2, 3): Fraction(1, 2),
                    (1, 4, 5): Fraction(-2, 3),
                    (2, 4, 6): Fraction(3, 5),
                    (3, 5, 6): Fraction(7, 4),
                    (2, 3, 4): 5,
                },
            ),
            id="mixed-denominators",
        ),
    ],
)
def test_killing_gram_matches_oracle(phi):
    _assert_gram_matches_oracle(phi)


def test_killing_gram_matches_oracle_on_catalog():
    for n in (6, 7, 8):
        for entry in catalog_entries(n, 3):
            if entry.fingerprint.stab_dim < n * n:
                _assert_gram_matches_oracle(entry.representative)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_killing_signature_is_action_invariant(data):
    # g changes the stabilizer basis and with it the sparsity pattern the
    # Gram build sees; the signature must not move
    n = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, n - 1))
    index = st.sets(st.integers(1, n), min_size=k, max_size=k).map(lambda x: tuple(sorted(x)))
    coeffs = st.integers(-3, 3).filter(bool)
    terms = data.draw(st.dictionaries(index, coeffs, min_size=1, max_size=5))
    phi = Form(n, k, terms)
    rng = trial_rng(data.draw(st.integers(0, 2**16)), n)
    g = random_gl(n, rng, det_sign=data.draw(st.sampled_from((1, -1))))
    base = killing_signature(stabilizer_algebra(phi))
    assert killing_signature(stabilizer_algebra(act(g, phi))) == base


def _assert_fingerprint_is_generic(phi):
    # the block formula at rank r against the stabilizer of phi itself
    S = stabilizer_algebra(phi)
    generic = Fingerprint(rank_profile(phi), S.dim, killing_signature(S))
    assert fingerprint(phi) == generic


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fingerprint_block_path_matches_generic(data):
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, n - 1))
    r = data.draw(st.integers(k, n - 1))
    index = st.sets(st.integers(1, r), min_size=k, max_size=k).map(lambda x: tuple(sorted(x)))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
    terms = data.draw(st.dictionaries(index, coeffs, min_size=1, max_size=6))
    rng = trial_rng(data.draw(st.integers(0, 2**16)), n)
    g = random_gl(n, rng, det_sign=data.draw(st.sampled_from((1, -1))))
    phi = act(g, Form(n, k, terms))
    assert rank(phi) < n
    _assert_fingerprint_is_generic(phi)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fingerprint_closed_form_of_decomposable_forms(data):
    # rank k: fingerprint and orbit_dimension solve nothing beyond the rank,
    # so compare them with the stabilizer of phi itself, full rank included
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, n))
    if data.draw(st.booleans()):
        covector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        phi = Form(n, 0, {(): 1})
        for coords in data.draw(st.lists(covector, min_size=k, max_size=k)):
            phi = wedge(phi, Form(n, 1, {(i,): c for i, c in enumerate(coords, 1)}))
        assume(not phi.is_zero)
    else:
        rng = trial_rng(data.draw(st.integers(0, 2**16)), n)
        g = random_gl(n, rng, det_sign=data.draw(st.sampled_from((1, -1))))
        phi = act(g, e(n, *range(1, k + 1)))
    assert rank(phi) == k
    _assert_fingerprint_is_generic(phi)
    assert orbit_dimension(phi) == n * n - stabilizer_algebra(phi).dim


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fingerprint_closed_form_of_two_forms(data):
    # rank 2l > 2: stab(phi_r) = sp(2l) with no solve; every rank, degenerate
    # and full, against the stabilizer of phi itself
    n = data.draw(st.integers(2, 8))
    l = data.draw(st.integers(1, n // 2))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
    terms = {(2 * i - 1, 2 * i): data.draw(coeffs) for i in range(1, l + 1)}
    rng = trial_rng(data.draw(st.integers(0, 2**16)), n)
    g = random_gl(n, rng, det_sign=data.draw(st.sampled_from((1, -1))))
    phi = act(g, Form(n, 2, terms))
    assert rank(phi) == 2 * l
    _assert_fingerprint_is_generic(phi)


def test_fingerprint_of_a_dense_two_form_at_the_cap_solves_no_stabilizer(monkeypatch):
    def no_stabilizer(phi):
        raise AssertionError("the fingerprint of a 2-form solved a stabilizer")

    invariants = importlib.import_module("formlab.invariants")
    monkeypatch.setattr(invariants, "stabilizer_algebra", no_stabilizer)
    rng = random.Random(0)
    pairs = combinations(range(1, 13), 2)
    phi = Form(12, 2, {p: rng.choice((-3, -2, -1, 1, 2, 3)) for p in pairs})
    assert fingerprint(phi) == Fingerprint((12,), 78, (42, 36, 0))


def _assert_codim_two_is_generic(phi):
    _assert_fingerprint_is_generic(phi)
    orbit = phi.n * phi.n - stabilizer_algebra(phi).dim
    assert orbit_dimension(phi) == orbit
    assert is_stable(phi) == (orbit == comb(phi.n, phi.k))


@pytest.mark.parametrize(
    "n, l, s",
    [
        (n, l, s)
        for n in range(3, 11)
        for l in range(n // 2 + 1)
        for s in ((1, -1) if 2 * l == n else (1,))
    ],
)
def test_fingerprint_closed_form_of_martinet_forms(n, l, s):
    # l >= 2 is full rank: the fingerprint is a function of (n, l) alone
    _assert_codim_two_is_generic(_martinet_form(n, l, s))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fingerprint_closed_form_of_codim_two_forms(data):
    n = data.draw(st.integers(3, 8))
    index = st.sampled_from(list(combinations(range(1, n + 1), n - 2)))
    terms = data.draw(
        st.dictionaries(index, st.integers(-3, 3).filter(bool), min_size=1, max_size=comb(n, 2))
    )
    rng = trial_rng(data.draw(st.integers(0, 2**16)), n)
    g = random_gl(n, rng, det_sign=data.draw(st.sampled_from((1, -1))))
    _assert_codim_two_is_generic(act(g, Form(n, n - 2, terms)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fingerprint_closed_form_of_three_forms_of_rank_six_and_seven(data):
    # lambda on R^6 and B on R^7 decide stab(phi_r), and the semisimple lift
    # carries it to R^n; lambda = 0 and det B = 0 keep the solve
    r = data.draw(st.sampled_from((6, 7)))
    n = data.draw(st.integers(r, 9))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
    triples = list(combinations(range(1, r + 1), 3))
    if data.draw(st.booleans()):
        terms = {idx: data.draw(coeffs) for idx in triples}
    else:
        terms = data.draw(st.dictionaries(st.sampled_from(triples), coeffs, min_size=1, max_size=8))
    rng = trial_rng(data.draw(st.integers(0, 2**16)), n)
    g = random_gl(n, rng, det_sign=data.draw(st.sampled_from((1, -1))))
    _assert_fingerprint_is_generic(act(g, Form(n, 3, terms)))


@pytest.mark.parametrize(
    "n, name", [(6, "elliptic-6"), (6, "split-2"), (7, "G2-tilde-7"), (7, "G2-compact-7")]
)
def test_fingerprint_closed_form_of_stable_catalog_forms(n, name):
    rep = next(entry.representative for entry in catalog_entries(n, 3) if entry.name == name)
    _assert_fingerprint_is_generic(rep)
    _assert_fingerprint_is_generic(act(random_gl(n, trial_rng(68, n)), rep))
    _assert_fingerprint_is_generic(Form(n + 2, 3, dict(rep.terms)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fingerprint_closed_form_of_three_forms_of_rank_eight(data):
    # Q's inertia decides stab(phi_8), and the semisimple lift carries it to
    # R^9 and R^10; a degenerate Q keeps the solve
    n = data.draw(st.integers(8, 10))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
    triples = list(combinations(range(1, 9), 3))
    if data.draw(st.booleans()):
        terms = {idx: data.draw(coeffs) for idx in triples}
    else:
        terms = data.draw(st.dictionaries(st.sampled_from(triples), coeffs, min_size=1, max_size=12))
    phi = Form(n, 3, terms)
    if data.draw(st.booleans()):
        rng = trial_rng(data.draw(st.integers(0, 2**16)), n)
        phi = act(random_gl(n, rng, det_sign=data.draw(st.sampled_from((1, -1)))), phi)
    _assert_fingerprint_is_generic(phi)


@pytest.mark.parametrize("name", sorted(CARTAN_FORMS))
def test_fingerprint_closed_form_of_cartan_forms(name):
    rep = cartan_form(name)
    _assert_fingerprint_is_generic(rep)
    _assert_fingerprint_is_generic(act(random_gl(8, trial_rng(75, len(name))), rep))
    _assert_fingerprint_is_generic(Form(10, 3, dict(rep.terms)))


def test_fingerprint_block_path_on_degenerate_catalog():
    for n in range(1, 9):
        for k in range(1, n):
            for t, entry in enumerate(catalog_entries(n, k)):
                rep = entry.representative
                if rep.is_zero or rank(rep) == n:
                    continue
                _assert_fingerprint_is_generic(rep)
                g = random_gl(n, trial_rng(62, 100 * n + t), det_sign=(-1) ** t)
                _assert_fingerprint_is_generic(act(g, rep))


def test_fingerprint_of_zero_forms_and_scalars():
    # no reduction: the stabilizer of phi itself, gl(n) for a 0-form
    assert fingerprint(Form.zero(5, 3)) == Fingerprint((0, 0), 25, (14, 10, 1))
    assert fingerprint(Form(4, 0, {(): 3})) == Fingerprint((), 16, (9, 6, 1))
    assert fingerprint(Form.zero(4, 0)) == Fingerprint((), 16, (9, 6, 1))


def test_fingerprint_str():
    fp = fingerprint(literature_form("G2-tilde-7"))
    assert str(fp) == "profile=(7,7) stab=14 killing=(8,6,0)"


def test_classify_exports_the_package_objects():
    # the fingerprint names live in invariants; classify re-exports them
    # and the package reads them there, so each name is one object
    classify_module = importlib.import_module("formlab.classify")
    for name in classify_module.__all__:
        assert getattr(classify_module, name) is getattr(formlab, name), name


# ------------------------------------------------------------------ catalog


def test_catalog_two_forms():
    for n in range(2, 9):
        entries = catalog_entries(n, 2)
        assert len(entries) == n // 2 + 1
        assert [e_.name for e_ in entries] == [f"two-form-rank-{2 * l}" for l in range(n // 2 + 1)]
        for e_ in entries:
            assert e_.fingerprint is None
            assert e_.components == (2 if rank(e_.representative) == n else 1)


def test_catalog_codim_two_counts():
    assert len(catalog_entries(4, 2)) == 3
    assert len(catalog_entries(5, 3)) == 3
    assert len(catalog_entries(6, 4)) == 5
    assert len(catalog_entries(7, 5)) == 4
    names6 = [e_.name for e_ in catalog_entries(6, 4)]
    assert names6 == [
        "martinet-l0-s0",
        "martinet-l1-s+1",
        "martinet-l2-s+1",
        "martinet-l3-s+1",
        "martinet-l3-s-1",
    ]


def test_catalog_generic_entries():
    assert [e_.name for e_ in catalog_entries(7, 3)] == [
        "decomposable",
        "split-2",
        "G2-tilde-7",
        "G2-compact-7",
    ]
    assert [e_.name for e_ in catalog_entries(6, 3)] == ["decomposable", "split-2", "elliptic-6"]
    assert catalog_entries(9, 4) == ()
    assert catalog_entries(9, 3) == ()
    assert [e_.components for e_ in catalog_entries(8, 4)] == [1, 2]
    # representatives must live where they claim and carry correct degrees
    for n, k in [(7, 3), (6, 3), (8, 4), (5, 3)]:
        for e_ in catalog_entries(n, k):
            assert e_.representative.n == n and e_.representative.k == k
            if e_.fingerprint is not None:
                assert fingerprint(e_.representative) == e_.fingerprint


# sha256 over the structured `formlab catalog n k` reports of every
# 1 <= n <= 12, 0 <= k <= n, in that order: it pins the representatives,
# notes, provenance, fingerprints, counts and order of the whole catalog.
CATALOG_REPORTS_SHA256 = "149f56fd6f89931f27ee00316d475bda293fc5462ff95a5f5d5df985ec0f384a"


def test_catalog_reports_frozen(capsys):
    digest = hashlib.sha256()
    for n in range(1, 13):
        for k in range(n + 1):
            assert main(["catalog", str(n), str(k), "--format", "structured"]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CATALOG_REPORTS_SHA256


def test_catalog_fingerprints_are_collision_free():
    for n, k in [(4, 1), (5, 1), (6, 3), (7, 3), (8, 3), (8, 4), (6, 1)]:
        fps = [e_.fingerprint for e_ in catalog_entries(n, k) if e_.fingerprint is not None]
        assert len(fps) == len(set(fps))


def test_catalog_dimension_guard():
    with pytest.raises(FormError):
        catalog_entries(MAX_DIMENSION + 1, 2)
    with pytest.raises(FormError):
        catalog_entries(0, 0)
    with pytest.raises(FormError):
        catalog_entries(5, 6)


def test_match_catalog():
    fp = fingerprint(e(7, 1, 2, 3))
    assert [e_.name for e_ in match_catalog(fp, 7, 3)] == ["decomposable"]
    other = fingerprint(literature_form("G2-compact-7"))
    assert [e_.name for e_ in match_catalog(other, 7, 3)] == ["G2-compact-7"]
    assert match_catalog(fp, 9, 3) == []


# --------------------------------------------------------- component counts

# Component count of every catalog entry for n <= MAX_DIMENSION, in catalog
# order.  Every zero or degenerate entry has a coordinate vector in its
# kernel, so the reflection in it, a sign pattern, decides its 1.  The two
# Nones are Martinet forms of even length l = n/2 whose count no criterion
# of _component_count decides; bench/golden/cli_corpus.json pins the one on
# R^12 through its `catalog 12 10` documents.
CATALOG_COMPONENTS = {
    (1, 1): {"decomposable": 2},
    (2, 1): {"decomposable": 1},
    (2, 2): {"two-form-rank-0": 1, "two-form-rank-2": 2},
    (3, 1): {"martinet-l0-s0": 1, "martinet-l1-s+1": 1},
    (3, 2): {"two-form-rank-0": 1, "two-form-rank-2": 1},
    (3, 3): {"decomposable": 2},
    (4, 1): {"decomposable": 1},
    (4, 2): {"two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 2},
    (4, 3): {"decomposable": 1},
    (4, 4): {"decomposable": 2},
    (5, 1): {"decomposable": 1},
    (5, 2): {"two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1},
    (5, 3): {"martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1},
    (5, 4): {"decomposable": 1},
    (5, 5): {"decomposable": 2},
    (6, 1): {"decomposable": 1},
    (6, 2): {
        "two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1, "two-form-rank-6": 2,
    },
    (6, 3): {"decomposable": 1, "split-2": 1, "elliptic-6": 1},
    (6, 4): {
        "martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1, "martinet-l3-s+1": 1,
        "martinet-l3-s-1": 1,
    },
    (6, 5): {"decomposable": 1},
    (6, 6): {"decomposable": 2},
    (7, 1): {"decomposable": 1},
    (7, 2): {
        "two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1, "two-form-rank-6": 1,
    },
    (7, 3): {"decomposable": 1, "split-2": 1, "G2-tilde-7": 2, "G2-compact-7": 2},
    (7, 4): {"decomposable": 1},
    (7, 5): {
        "martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1, "martinet-l3-s+1": 1,
    },
    (7, 6): {"decomposable": 1},
    (7, 7): {"decomposable": 2},
    (8, 1): {"decomposable": 1},
    (8, 2): {
        "two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1, "two-form-rank-6": 1,
        "two-form-rank-8": 2,
    },
    (8, 3): {"decomposable": 1, "split-2": 1},
    (8, 4): {"decomposable": 1, "split-2": 2},
    (8, 5): {"decomposable": 1},
    (8, 6): {
        "martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1, "martinet-l3-s+1": 1,
        "martinet-l4-s+1": None,
    },
    (8, 7): {"decomposable": 1},
    (8, 8): {"decomposable": 2},
    (9, 2): {
        "two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1, "two-form-rank-6": 1,
        "two-form-rank-8": 1,
    },
    (9, 7): {
        "martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1, "martinet-l3-s+1": 1,
        "martinet-l4-s+1": 1,
    },
    (9, 9): {"decomposable": 2},
    (10, 2): {
        "two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1, "two-form-rank-6": 1,
        "two-form-rank-8": 1, "two-form-rank-10": 2,
    },
    (10, 8): {
        "martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1, "martinet-l3-s+1": 1,
        "martinet-l4-s+1": 1, "martinet-l5-s+1": 1, "martinet-l5-s-1": 1,
    },
    (10, 10): {"decomposable": 2},
    (11, 2): {
        "two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1, "two-form-rank-6": 1,
        "two-form-rank-8": 1, "two-form-rank-10": 1,
    },
    (11, 9): {
        "martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1, "martinet-l3-s+1": 1,
        "martinet-l4-s+1": 1, "martinet-l5-s+1": 1,
    },
    (11, 11): {"decomposable": 2},
    (12, 2): {
        "two-form-rank-0": 1, "two-form-rank-2": 1, "two-form-rank-4": 1, "two-form-rank-6": 1,
        "two-form-rank-8": 1, "two-form-rank-10": 1, "two-form-rank-12": 2,
    },
    (12, 10): {
        "martinet-l0-s0": 1, "martinet-l1-s+1": 1, "martinet-l2-s+1": 1, "martinet-l3-s+1": 1,
        "martinet-l4-s+1": 1, "martinet-l5-s+1": 1, "martinet-l6-s+1": None,
    },
    (12, 12): {"decomposable": 2},
}


def _catalog():
    for n in range(1, MAX_DIMENSION + 1):
        for k in range(n + 1):
            yield from catalog_entries(n, k)


def _first_sign_pattern(phi):
    # the first odd sign pattern meeting every support in an even number of
    # bits, by scanning all 2^n - 1 patterns: the oracle of _diagonal_reversal
    supports = [sum(1 << (i - 1) for i in idx) for idx in phi.terms]
    return next(
        (
            x
            for x in range(1, 1 << phi.n)
            if x.bit_count() & 1 and not any((x & s).bit_count() & 1 for s in supports)
        ),
        None,
    )


def _diagonal_signs(n, x):
    # the sign matrix with -1 at bit i - 1 of x
    return LinMap.diagonal([-1 if x >> i & 1 else 1 for i in range(n)])


def _block_swap(n, k):
    # the permutation matrix exchanging e_1..e_k with e_{k+1}..e_{2k}
    perm = [*range(k, 2 * k), *range(k), *range(2 * k, n)]
    return LinMap([[int(perm[i] == j) for j in range(n)] for i in range(n)])


def test_catalog_component_counts_frozen():
    catalog = {}
    for entry in _catalog():
        catalog.setdefault((entry.n, entry.k), {})[entry.name] = entry.components
    assert catalog == CATALOG_COMPONENTS
    assert sum(map(len, catalog.values())) == 126


def test_component_count_witnesses_fix_the_representative():
    # the witness matrix behind every count the index criteria decide
    decided = 0
    for entry in _catalog():
        rep, n, k = entry.representative, entry.n, entry.k
        count, reason = _component_count(rep, entry.fingerprint)
        assert count == entry.components
        if reason.startswith("diagonal"):
            g = _diagonal_signs(n, _first_sign_pattern(rep))
        elif reason.startswith("block swap"):
            g = _block_swap(n, k)
        else:
            continue
        assert count == 1 and g.det < 0 and act(g, rep) == rep
        decided += 1
    # 26 full-rank entries and the 78 zero or degenerate ones
    assert decided == 104


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_span_criterion_matches_the_pattern_scan(data):
    # sparse forms up to R^10, past the n <= 8 of the action check below
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(1, n))
    index = st.sampled_from(list(combinations(range(1, n + 1), k)))
    phi = Form(n, k, {idx: 1 for idx in data.draw(st.lists(index, max_size=8))})
    assert _diagonal_reversal(phi) == (_first_sign_pattern(phi) is not None)


def test_diagonal_and_block_swap_criteria_match_the_action():
    # both ways: the criteria are true exactly when the matrix fixes the form;
    # the pattern scan stands in for the action at every n
    for entry in _catalog():
        rep, n, k = entry.representative, entry.n, entry.k
        assert _diagonal_reversal(rep) == (_first_sign_pattern(rep) is not None)
        if rep.is_zero:
            continue
        if n <= 8:
            fixed = any(
                act(_diagonal_signs(n, x), rep) == rep
                for x in range(1, 1 << n)
                if x.bit_count() & 1
            )
            assert _diagonal_reversal(rep) == fixed
        if k % 2 and 2 * k <= n:
            assert _block_swap_reversal(rep) == (act(_block_swap(n, k), rep) == rep)
        else:
            assert not _block_swap_reversal(rep)


def test_component_counts_build_no_matrix(monkeypatch):
    classify_module = importlib.import_module("formlab.classify")
    exterior = importlib.import_module("formlab.exterior")
    invariants = importlib.import_module("formlab.invariants")
    assert not hasattr(classify_module, "LinMap") and not hasattr(classify_module, "act")
    assert not hasattr(classify_module, "_stable_three_form")

    def no_solve(*args):
        raise AssertionError("a component count built a matrix or solved a rank")

    monkeypatch.setattr(classify_module, "rank", no_solve)
    catalog_entries.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(exterior.LinMap, "__init__", no_solve)
            m.setattr(exterior, "act", no_solve)
            for n in range(2, MAX_DIMENSION + 1):
                assert len(catalog_entries(n, 2)) == len(CATALOG_COMPONENTS[n, 2])
            for n in range(5, MAX_DIMENSION + 1):
                assert len(catalog_entries(n, n - 2)) == len(CATALOG_COMPONENTS[n, n - 2])
        # the (7,3) counts read stability off the fingerprints rather than
        # building Bryant's B again
        calls = []
        stable = invariants._stable_three_form
        monkeypatch.setattr(
            invariants, "_stable_three_form", lambda phi: calls.append(phi) or stable(phi)
        )
        catalog_entries(7, 3)
        # split-2's rank-6 reduction and the two G2 forms, once each
        assert len(calls) == 3
    finally:
        catalog_entries.cache_clear()


# ----------------------------------------------------------- classification


def test_classify_frozen_verdicts():
    checks = [
        (literature_form("G2-tilde-7"), "catalog:G2-tilde-7", 2, True),
        (literature_form("G2-compact-7"), "catalog:G2-compact-7", 2, True),
        (literature_form("elliptic-6"), "catalog:elliptic-6", 1, True),
        (e(7, 1, 2, 3), "rank3:catalog:decomposable", 1, False),
        (e(7, 1, 2, 3) + e(7, 4, 5, 6), "rank6:catalog:split-2", 1, False),
        (e(6, 1, 2, 3) + e(6, 1, 4, 5), "rank5:martinet:l=2,s=1", 1, False),
        (e(4, 1, 2, 3, 4), "catalog:decomposable", 2, True),
        (Form.zero(7, 3), "zero", 1, False),
        (e(4, 1), "rank1:catalog:decomposable", 1, True),
    ]
    for phi, orbit_id, comps, is_open in checks:
        rep = classify(phi)
        assert rep.kind == "exact"
        assert rep.orbit_id == orbit_id
        assert rep.components == comps
        assert rep.open is is_open


def test_classify_scalars():
    rep = classify(Form(5, 0, {(): Fraction(-3, 2)}))
    assert rep.kind == "exact" and rep.orbit_id == "scalar:-3/2"
    assert classify(Form.zero(5, 0)).orbit_id == "scalar:0"


def test_classify_dispatches_two_forms_and_codim_two():
    rep = classify(e(5, 1, 2) + e(5, 3, 4))
    assert rep.orbit_id == "two-form:rank=4"
    assert rep.open  # maximal rank 4 == 2 * (5 // 2)
    assert rep.components == 1
    rep = classify(e(4, 1, 2) + e(4, 3, 4))
    assert rep.orbit_id == "two-form:rank=4" and rep.components == 2
    rep = classify(e(3, 1), VolumeForm(3))
    assert rep.orbit_id == "martinet:l=1,s=1"
    assert rep.open and rep.components == 1
    rep = classify(Form.zero(6, 4))
    assert rep.orbit_id == "martinet:l=0,s=0" and not rep.open


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codim_two_rank_is_read_off_the_length(data):
    # classify_codim_two reports rank n, n - 2 or 0 from the Martinet length;
    # rank() solves the contraction system
    n = data.draw(st.integers(3, 10))
    index = st.sets(st.integers(1, n), min_size=n - 2, max_size=n - 2)
    size = data.draw(st.integers(0, min(5, comb(n, 2))))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5))
    terms = data.draw(
        st.dictionaries(index.map(lambda x: tuple(sorted(x))), coeffs, min_size=size, max_size=size)
    )
    phi = Form(n, n - 2, terms)
    if data.draw(st.booleans()):
        phi = act(random_gl(n, trial_rng(data.draw(st.integers(0, 2**16)), n)), phi)
    rep = classify_codim_two(phi)
    assert rep.rank == rank(phi)
    assert rep.rank == {0: 0, 1: n - 2}.get(rep.length_sign.length, n)


def test_orbit_report_defaults():
    rep = OrbitReport(kind="unknown", orbit_id=None, n=3, k=1, open=False)
    assert rep.candidates == () and rep.notes == ()
    assert rep.rank is rep.fingerprint is rep.length_sign is None
    assert rep.canonical is rep.components is None
    with pytest.raises(TypeError):
        OrbitReport("unknown", None, (), 3, 1, None, None, None, None, None, False, ())


def test_two_form_partition_by_rank():
    seen = {}
    for l in range(0, 3):
        phi = Form(5, 2, {(2 * i + 1, 2 * i + 2): Fraction(1) for i in range(l)})
        for trial in range(10):
            g = random_gl(5, trial_rng(33, 10 * l + trial), det_sign=1 if trial % 2 else -1)
            rep = classify_two_form(act(g, phi))
            assert rep.orbit_id == f"two-form:rank={2 * l}"
        seen[l] = rep.orbit_id
    assert len(set(seen.values())) == 3
    with pytest.raises(DegreeError):
        classify_two_form(e(4, 1, 2, 3))


def test_classify_is_pullback_invariant():
    targets = [
        literature_form("G2-tilde-7"),
        literature_form("elliptic-6"),
        e(6, 1, 2, 3) + e(6, 1, 4, 5),
        e(7, 1, 2, 3) + e(7, 4, 5, 6),
    ]
    for t, phi in enumerate(targets):
        base = classify(phi)
        for trial in range(4):
            g = random_gl(phi.n, trial_rng(55 + t, trial), det_sign=1 if trial % 2 else -1)
            rep = classify(act(g, phi))
            assert rep.orbit_id == base.orbit_id
            assert rep.kind == base.kind
            assert rep.components == base.components


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_id_is_stable_under_embedding(data):
    # a form on R^r is named by its rank reduction inside R^8 and inside R^9
    # alike; degrees 6 and 7 are left out, being codimension two in one of them
    r = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, min(r, 5)))
    index = st.sets(st.integers(1, r), min_size=k, max_size=k).map(lambda x: tuple(sorted(x)))
    terms = data.draw(
        st.dictionaries(index, st.integers(-2, 2).filter(bool), min_size=1, max_size=4)
    )
    seed = data.draw(st.integers(0, 2**16))
    verdicts = []
    for n in (8, 9):
        rep = classify(act(random_gl(n, trial_rng(seed, n)), Form(n, k, terms)))
        verdicts.append((rep.kind, rep.orbit_id, rep.candidates))
    assert verdicts[0] == verdicts[1]


def test_classify_unknown_paths():
    # a full-rank 4-form on R^7 outside the catalog: honest "unknown",
    # component count not certified
    phi = e(7, 1, 2, 3, 4) + e(7, 4, 5, 6, 7) + e(7, 2, 3, 5, 6) + e(7, 1, 3, 5, 7)
    assert rank(phi) == 7
    rep = classify(phi)
    assert rep.kind == "unknown"
    assert rep.orbit_id is None
    assert rep.components is None
    assert rep.fingerprint is not None

    # the same form seen inside R^8 is degenerate: the kernel-reflection
    # argument certifies a single component even though the orbit type is
    # still unknown
    inflated = Form(8, 4, dict(phi.terms))
    rep8 = classify(inflated)
    assert rep8.kind == "unknown"
    assert rep8.rank == 7
    assert rep8.components == 1


@pytest.mark.parametrize(
    "n,r", [(9, 9), (10, 10), (11, 11), (12, 12), (10, 9), (11, 10), (12, 11)]
)
def test_classify_top_degree_beyond_catalog(n, r):
    # GL(r) acts on r-forms by det^-1, so a nonzero r-form of rank r lies in
    # the orbit of e^{1...r}, which the catalog lists at every r although its
    # generic degrees stop at n = 8
    rep = classify(Form(n, r, {tuple(range(1, r + 1)): Fraction(-3, 7)}))
    assert rep.kind == "exact"
    assert rep.orbit_id == ("" if r == n else f"rank{r}:") + "catalog:decomposable"
    assert rep.canonical == e(n, *range(1, r + 1))
    assert rep.components == (2 if r == n else 1)
    assert rep.rank == r
    assert rep.fingerprint is not None
    assert rep.open


def test_classify_top_degree_in_catalog_unchanged():
    # the catalog entry decides at every n, with its own notes
    for n in range(3, MAX_DIMENSION + 1):
        rep = classify(Form(n, n, {tuple(range(1, n + 1)): 5}))
        assert (rep.kind, rep.orbit_id, rep.components, rep.open) == (
            "exact",
            "catalog:decomposable",
            2,
            True,
        )
        assert rep.canonical == e(n, *range(1, n + 1))
        assert rep.notes == (
            "sum of 1 disjoint decomposable blocks",
            "matched catalog entry [derived]",
        )
    rep = classify(Form(9, 8, {tuple(range(1, 9)): 5}))
    assert rep.orbit_id == "rank8:catalog:decomposable"
    assert rep.components == 1


def test_classify_rejects_uncovered_dimension_before_invariants(monkeypatch):
    def no_stabilizer(phi):
        raise AssertionError("stabilizer computed for a form outside the catalog's range")

    # the stabilizer is solved through invariants; this 3-form has rank 6 and
    # lambda = 0, so it is not stable and its fingerprint would solve stab(phi_6)
    invariants = importlib.import_module("formlab.invariants")
    monkeypatch.setattr(invariants, "stabilizer_algebra", no_stabilizer)
    n = MAX_DIMENSION + 1
    with pytest.raises(FormError):
        classify(e(n, 1, 2, 6) - e(n, 2, 3, 4) + e(n, 1, 3, 5))


def _forbid_rank_rows(monkeypatch):
    # the fingerprint takes its contraction ranks through invariants; the
    # patch must catch a form that still solves a rank past degree 1
    def no_rank(*args):
        raise AssertionError("a contraction rank was taken")

    monkeypatch.setattr(importlib.import_module("formlab.invariants"), "rank_rows", no_rank)
    with pytest.raises(AssertionError, match="a contraction rank was taken"):
        fingerprint(e(8, 1, 2, 3, 4) + e(8, 5, 6, 7, 8))


def test_classify_decomposable_solves_only_its_rank(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a decomposable form solved more than its rank")

    _forbid_rank_rows(monkeypatch)
    invariants = importlib.import_module("formlab.invariants")
    monkeypatch.setattr(invariants, "stabilizer_algebra", no_solve)
    catalog_entries.cache_clear()  # the (k, k) entries must build without a solve too
    moved = act(random_gl(9, trial_rng(63, 0), det_sign=-1), e(9, *range(1, 7)))
    for phi in (e(MAX_DIMENSION, *range(1, MAX_DIMENSION + 1)), moved):
        assert classify(phi).kind == "exact"


def test_fingerprint_codim_two_solves_only_its_rank(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a full-rank (n-2)-form solved more than its rank")

    _forbid_rank_rows(monkeypatch)
    invariants = importlib.import_module("formlab.invariants")
    monkeypatch.setattr(invariants, "stabilizer_algebra", no_solve)
    phi = random_form(12, 10, 9, trial_rng(64, 0))
    assert len(phi.terms) > 60
    # l = 6, m = 0: r_j = min(C(12, j), C(12, j + 2)) and stab = sp(12)
    profile = tuple(min(comb(12, j), comb(12, j + 2)) for j in range(1, 10))
    assert fingerprint(phi) == Fingerprint(profile, 78, (42, 36, 0))
    assert orbit_dimension(phi) == 66 and is_stable(phi)


def test_stable_three_forms_solve_only_their_rank(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a stable 3-form of rank 6 or 7 solved its stabilizer")

    invariants = importlib.import_module("formlab.invariants")
    monkeypatch.setattr(invariants, "stabilizer_algebra", no_solve)
    catalog_entries.cache_clear()  # the (6,3) and (7,3) entries must build without a solve too
    stable = [random_form(n, 3, 9, trial_rng(69, n)) for n in (6, 7)]
    stable += [literature_form("G2-compact-7"), literature_form("elliptic-6")]
    for t, phi in enumerate(list(stable)):
        for n in (phi.n + 1, 9):
            g = random_gl(n, trial_rng(70, 10 * t + n), det_sign=(-1) ** n)
            stable.append(act(g, Form(n, 3, dict(phi.terms))))
    for phi in stable:
        report = classify(phi)
        assert report.kind == "exact"
        assert report.orbit_id.endswith(("split-2", "elliptic-6", "G2-tilde-7", "G2-compact-7"))
        fp = fingerprint(phi)
        assert orbit_dimension(phi) == phi.n**2 - fp.stab_dim
        assert is_stable(phi) == (report.rank == phi.n)


def test_stable_three_forms_of_rank_eight_solve_only_their_rank(monkeypatch):
    # det Q != 0 certifies stability: the stabilizer system is not built,
    # and the only rank taken modulo a prime is that of the tall degree-1
    # system of reduce_form, with n columns
    def no_solve(*args):
        raise AssertionError("a stable 3-form of rank 8 built a linear system past its rank")

    invariants = importlib.import_module("formlab.invariants")
    linalg = importlib.import_module("formlab.linalg")
    assert not hasattr(invariants, "_rank_mod_p")
    for name in ("stabilizer_algebra", "_stabilizer_rows"):
        monkeypatch.setattr(invariants, name, no_solve)
    widths = []
    rank_mod_p = linalg._rank_mod_p

    def spy(mat, ncols):
        widths.append(ncols)
        return rank_mod_p(mat, ncols)

    monkeypatch.setattr(linalg, "_rank_mod_p", spy)
    catalog_entries.cache_clear()
    stable = [cartan_form(name) for name in CARTAN_FORMS]
    stable += [random_form(8, 3, 9, trial_rng(76, t)) for t in range(3)]
    for t, phi in enumerate(list(stable)):
        for n in (9, 10):
            g = random_gl(n, trial_rng(77, 10 * t + n), det_sign=(-1) ** t)
            stable.append(act(g, Form(n, 3, dict(phi.terms))))
    for phi in stable:
        n, m = phi.n, phi.n - 8
        widths.clear()
        report = classify(phi)
        # the (8,3) catalog has no open orbit yet
        assert (report.kind, report.rank) == ("unknown", 8)
        fp = fingerprint(phi)
        assert fp.rank_profile == (8, 8) and fp.stab_dim == 8 + n * m
        assert report.fingerprint == fp
        assert orbit_dimension(phi) == n * n - fp.stab_dim
        assert is_stable(phi) == (m == 0)
        assert widths and set(widths) == {n}


def test_unstable_three_forms_keep_the_solve(monkeypatch):
    # lambda = 0 at rank 6 and det B = 0 at rank 7: the stabilizer is solved
    invariants = importlib.import_module("formlab.invariants")
    solved = []

    def counting(phi):
        solved.append(phi.n)
        return stabilizer_algebra(phi)

    monkeypatch.setattr(invariants, "stabilizer_algebra", counting)
    lam_zero = e(6, 1, 2, 6) - e(6, 2, 3, 4) + e(6, 1, 3, 5)
    rep = classify(lam_zero)
    assert (rep.kind, rep.fingerprint) == ("unknown", Fingerprint((6, 6), 17, (6, 3, 8)))
    b_degenerate = e(7, 1, 2, 3) + e(7, 1, 4, 5) + e(7, 1, 6, 7)
    rep = classify(b_degenerate)
    assert (rep.kind, rep.fingerprint) == ("unknown", Fingerprint((7, 7), 28, (13, 9, 6)))
    # a degenerate Q on R^8
    q_degenerate = e(8, 1, 2, 3) + e(8, 4, 5, 6) + e(8, 1, 7, 8)
    assert inertia_fraction(_sextic_gram(list(q_degenerate.nums.items()))) == (1, 0, 7)
    rep = classify(q_degenerate)
    assert (rep.kind, rep.fingerprint) == ("unknown", Fingerprint((8, 8), 23, (12, 7, 4)))
    assert solved == [6, 7, 8]


def test_catalog_of_odd_degree_takes_no_wedge(monkeypatch):
    # phi ^ phi = 0 for odd k: a cold (6,3) build takes no top power
    classify_module = importlib.import_module("formlab.classify")
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return wedge(a, b)

    monkeypatch.setattr(classify_module, "wedge", counting)
    catalog_entries.cache_clear()
    assert [entry.components for entry in catalog_entries(6, 3)] == [1, 1, 1]
    assert calls == []


def test_classify_reduction_recursion_inflates_canonical():
    phi = e(6, 1, 2, 3) + e(6, 1, 4, 5)
    rep = classify(phi)
    assert rep.canonical is not None
    assert rep.canonical.n == 6
    assert rep.length_sign is not None
    assert rep.length_sign.length == 2
    assert rep.rank == 5


# ----------------------------------------------------------------- sampling


def test_sample_orbit_statistics_deterministic():
    a = sample_orbit_statistics(4, 2, 30, seed=11)
    b = sample_orbit_statistics(4, 2, 30, seed=11)
    assert a == b
    assert sum(a.values()) == 30
    # rank-4 two-forms dominate; their fingerprint has the sp(4) stabilizer
    top = max(a.items(), key=lambda kv: kv[1])[0]
    assert str(top) == "profile=(4) stab=10 killing=(6,4,0)"


def test_sample_orbit_statistics_seed_sensitivity():
    a = sample_orbit_statistics(3, 1, 25, seed=1)
    b = sample_orbit_statistics(3, 1, 25, seed=2)
    assert sum(a.values()) == sum(b.values()) == 25
