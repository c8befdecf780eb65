"""Action identities that tie together contraction, duality and the twist.

The volume-contraction intertwiners here are checked in their exact form;
the naive variant without the determinant twist fails already for a shear,
and one test pins that down so the sign conventions stay honest.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formlab import (
    Form,
    InnerProduct,
    LinMap,
    Polyvector,
    VolumeForm,
    act,
    act_vectors,
    infinitesimal_act,
    musical_inv,
    poincare,
    pullback,
    stabilizer_algebra,
    twisted_act,
    wedge,
)
from formlab.sampling import random_gl, trial_rng

from conftest import pairing

coeffs = st.integers(-9, 9).filter(bool)
rational_coeffs = st.fractions(-9, 9, max_denominator=7).filter(bool)


def index_tuples(n, k):
    return st.sets(st.integers(1, n), min_size=k, max_size=k).map(lambda s: tuple(sorted(s)))


def forms(n, k, cls=Form, coeff=coeffs):
    return st.dictionaries(index_tuples(n, k), coeff, max_size=4).map(
        lambda d: cls(n, k, {i: Fraction(c) for i, c in d.items()})
    )


def maps(n, bound=3):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(LinMap)


# ------------------------------------------------------- infinitesimal action


def test_infinitesimal_euler():
    phi = Form.basis(4, (1, 2), 3) + Form.basis(4, (2, 4))
    assert infinitesimal_act(LinMap.identity(4), phi) == phi * (-2)


@settings(max_examples=25, deadline=None)
@given(A=maps(4), B=maps(4), phi=forms(4, 2), psi=forms(4, 2))
def test_infinitesimal_is_linear_and_respects_brackets(A, B, phi, psi):
    assert infinitesimal_act(A, phi + psi) == infinitesimal_act(A, phi) + infinitesimal_act(A, psi)
    two_a = LinMap([[2 * x for x in row] for row in A.entries])
    assert infinitesimal_act(two_a, phi) == infinitesimal_act(A, phi) * 2
    # representation of the commutator
    ab = A @ B
    ba = B @ A
    bracket = LinMap(
        [[ab.entries[i][j] - ba.entries[i][j] for j in range(4)] for i in range(4)]
    )
    lhs = infinitesimal_act(A, infinitesimal_act(B, phi)) - infinitesimal_act(
        B, infinitesimal_act(A, phi)
    )
    assert lhs == infinitesimal_act(bracket, phi)


@settings(max_examples=20, deadline=None)
@given(A=maps(3, bound=2), d=st.integers(1, 3), phi=forms(3, 2, coeff=rational_coeffs))
def test_infinitesimal_matches_pullback_derivative(A, d, phi):
    """Exact first derivative of s -> pullback(I + sA, phi) at s = 0.

    The pullback coefficients are polynomials in s of degree <= k, so the
    linear coefficient is recovered exactly by interpolation at s = 0, 1, -1,
    2 using c1 = (8 f(1) - 8 f(-1) - f(2) + f(-2)) / 12.  Its negation is the
    infinitesimal left action.  phi and A / d are rational, so both divisors
    of the integer rows are exercised.
    """
    A = LinMap([[x / d for x in row] for row in A.entries])
    n, k = 3, 2
    samples = {}
    for s in (1, -1, 2, -2):
        m = LinMap(
            [
                [(1 if i == j else 0) + s * A.entries[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
        samples[s] = pullback(m, phi)
    lin = (samples[1] * 8 - samples[-1] * 8 - samples[2] + samples[-2]) / 12
    assert infinitesimal_act(A, phi) == -lin


def test_stabilizer_annihilates_and_closes():
    phi = Form.basis(4, (1, 2)) + Form.basis(4, (3, 4))
    S = stabilizer_algebra(phi)
    assert S.dim == 10
    mats = list(S.basis)
    for A in mats:
        assert infinitesimal_act(A, phi).is_zero
    # bracket closure: [A, B] must again annihilate phi
    for A in mats[:3]:
        for B in mats[-3:]:
            ab, ba = A @ B, B @ A
            br = LinMap(
                [[ab.entries[i][j] - ba.entries[i][j] for j in range(4)] for i in range(4)]
            )
            assert infinitesimal_act(br, phi).is_zero


# ----------------------------------------------------------- volume twisting


def _random_polyvector(n, k, rng):
    from itertools import combinations

    terms = {}
    for idx in combinations(range(1, n + 1), k):
        c = rng.randint(-5, 5)
        if c:
            terms[idx] = Fraction(c)
    return Polyvector(n, k, terms)


def _random_form(n, k, rng):
    xi = _random_polyvector(n, k, rng)
    return Form(n, k, dict(xi.terms))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_volume_contraction_intertwines_vector_action(n, k):
    # i_{g xi} Omega == det(g) * act(g, i_xi Omega), so with the +1 twist
    # poincare(act_vectors(g, xi)) == twisted_act(g, 1, poincare(xi))
    om = VolumeForm(n, Fraction(2, 3))
    rng = trial_rng(13, n * 10 + k)
    for trial in range(25):
        g = random_gl(n, trial_rng(13, 1000 * n + trial), det_sign=1)
        xi = _random_polyvector(n, k, rng)
        assert poincare(om, act_vectors(g, xi)) == twisted_act(g, 1, poincare(om, xi))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (6, 2)])
def test_duality_transform_intertwines_with_inverse_transpose(n, k):
    # T = poincare o musical_inv (identity metric) satisfies
    # T(act(g, phi)) == twisted_act(g^{-T}, 1, T(phi))
    om = VolumeForm(n)
    mu = InnerProduct.identity(n)
    rng = trial_rng(29, n * 10 + k)

    def T(phi):
        return poincare(om, musical_inv(mu, phi))

    for trial in range(25):
        g = random_gl(n, trial_rng(29, 1000 * n + trial), det_sign=1)
        phi = _random_form(n, k, rng)
        gmt = g.inverse().transpose()
        assert T(act(g, phi)) == twisted_act(gmt, 1, T(phi))


def test_naive_duality_equivariance_fails_for_a_shear():
    # dropping the inverse-transpose (or the twist) breaks equivariance:
    # a unit shear already separates the two sides
    n = 3
    om = VolumeForm(n)
    mu = InnerProduct.identity(n)
    g = LinMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    phi = Form.basis(n, (1,))

    def T(f):
        return poincare(om, musical_inv(mu, f))

    assert T(act(g, phi)) != twisted_act(g, -1, T(phi))
    assert T(act(g, phi)) != twisted_act(g, 1, T(phi))
    assert T(act(g, phi)) == twisted_act(g.inverse().transpose(), 1, T(phi))


def _signed_permutation(n, perm, flips):
    cols = []
    for j, p in enumerate(perm):
        col = [0] * n
        col[p] = -1 if j in flips else 1
        cols.append(col)
    return LinMap.from_columns(cols)


def test_duality_equivariance_holds_on_special_orthogonal_maps():
    # for g orthogonal with det 1 the inverse transpose IS g, so the naive
    # statement is true on that subgroup
    n = 4
    om = VolumeForm(n)
    mu = InnerProduct.identity(n)
    rng = trial_rng(31, 0)

    def T(f):
        return poincare(om, musical_inv(mu, f))

    for trial in range(20):
        perm = list(range(n))
        rng.shuffle(perm)
        flips = {j for j in range(n) if rng.random() < 0.5}
        g = _signed_permutation(n, perm, flips)
        if g.det != 1:
            g = g @ LinMap.diagonal([-1] + [1] * (n - 1))
        assert g.det == 1
        assert g.inverse().transpose() == g
        phi = _random_form(n, 2, rng)
        assert T(act(g, phi)) == twisted_act(g, 1, T(phi))


@settings(max_examples=25, deadline=None)
@given(g=maps(4), phi=forms(4, 2), xi=forms(4, 2, Polyvector))
def test_pairing_invariance_under_paired_actions(g, phi, xi):
    assume(g.det != 0)
    assert pairing(act(g, phi), act_vectors(g, xi)) == pairing(phi, xi)
