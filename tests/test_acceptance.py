"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line on
the terminal (bypassing capture), and enforces its time budget.  Everything
runs on fixed seeds; the expected statistics below are frozen against the
per-trial hashed generator, so they are stable under test reordering.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from formlab import (
    Fingerprint,
    Form,
    InnerProduct,
    LinMap,
    Polyvector,
    VolumeForm,
    act,
    act_vectors,
    catalog_entries,
    classify_codim_two,
    classify_two_form,
    fingerprint,
    is_stable,
    killing_signature,
    musical_inv,
    nilpotency_witness_degenerate,
    orbit_dimension,
    orientation_reversing_stabilizer_witness,
    poincare,
    rank,
    rank_profile,
    reduce_form,
    sample_orbit_statistics,
    stabilizer_algebra,
    twisted_act,
)
from formlab.sampling import random_form, random_gl, random_nonzero_form, trial_rng

from conftest import literature_form

SEED = 2026


def report(capsys, num, ok, detail, elapsed=None, budget=None):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}"
    if budget is not None:
        line += f" [{elapsed:.1f}s < {budget}s]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def positive_gl(n, rng, scale_every=None, trial=0):
    """Random integer matrix with determinant exactly +1, optionally bumped
    to a larger positive determinant so the tests leave SL(n)."""
    g = random_gl(n, rng, det_sign=1)
    if scale_every and trial % scale_every == 0:
        g = LinMap.diagonal([2] + [1] * (n - 1)) @ g
    assert g.det > 0
    return g


def inflate(phi, n):
    return type(phi)(n, phi.k, dict(phi.terms))


@pytest.fixture(scope="module")
def histograms():
    """500-trial fingerprint histograms for 3-forms on R^6, R^7, R^8.

    Shared between the dimension-table and real-form-separation criteria;
    the elapsed time is carried along so both can enforce the budget.
    """
    start = time.monotonic()
    hists = {n: sample_orbit_statistics(n, 3, 500, bound=9, seed=SEED) for n in (6, 7, 8)}
    return hists, time.monotonic() - start


def test_criterion_1_two_form_partition(capsys):
    budget = 10.0
    start = time.monotonic()
    total = 0
    classes_ok = True
    for n in range(2, 9):
        ids = set()
        for l in range(n // 2 + 1):
            rep = Form(n, 2, {(2 * i + 1, 2 * i + 2): Fraction(1) for i in range(l)})
            want = f"two-form:rank={2 * l}"
            got = classify_two_form(rep).orbit_id
            classes_ok &= got == want
            ids.add(got)
            total += 1
            for trial in range(200):
                g = random_gl(n, trial_rng(SEED + 10 * n + l, trial), det_sign=1 if trial % 2 else -1)
                verdict = classify_two_form(act(g, rep)).orbit_id
                classes_ok &= verdict == want
                total += 1
        classes_ok &= len(ids) == n // 2 + 1
    elapsed = time.monotonic() - start
    ok = classes_ok and elapsed < budget
    report(
        capsys,
        1,
        ok,
        f"2-form verdicts partition exactly by rank ({total} classifications, n=2..8)",
        elapsed,
        budget,
    )


def test_criterion_2_codim_two_completeness(capsys):
    budget = 30.0
    start = time.monotonic()
    ok = True
    for n in range(4, 8):
        admissible = {(0, 0)}
        for l in range(1, n // 2 + 1):
            if 2 * l < n:
                admissible.add((l, 1))
            elif l % 2:
                admissible.update({(l, 1), (l, -1)})
            else:
                admissible.add((l, 1))
        entries = catalog_entries(n, n - 2)
        seen = set()
        for entry in entries:
            rep0 = classify_codim_two(entry.representative)
            ls = rep0.length_sign
            seen.add((ls.length, ls.sign))
            want_id = rep0.orbit_id
            want_components = 2 if (2 * ls.length == n and ls.length % 2 == 0) else 1
            ok &= rep0.components == want_components
            for trial in range(50):
                g = positive_gl(n, trial_rng(SEED + 100 * n, trial), scale_every=5, trial=trial)
                verdict = classify_codim_two(act(g, entry.representative))
                ok &= verdict.orbit_id == want_id
                ok &= verdict.components == want_components
        ok &= seen == admissible
    elapsed = time.monotonic() - start
    ok = ok and elapsed < budget
    report(
        capsys,
        2,
        ok,
        "every admissible Martinet class recovered from 50 positive-det pullbacks each (n=4..7)",
        elapsed,
        budget,
    )


def test_criterion_3_duality_equivariance(capsys):
    budget = 30.0
    start = time.monotonic()
    ok = True
    checked = 0
    for n in range(3, 8):
        om = VolumeForm(n)
        mu = InnerProduct.identity(n)
        for trial in range(100):
            rng = trial_rng(SEED + 1000 * n, trial)
            k = 1 + trial % n
            g = positive_gl(n, rng, scale_every=7, trial=trial)
            phi = random_form(n, k, 5, rng)
            # contraction into the volume form intertwines the direct image
            # with the (+1)-twisted action
            xi = musical_inv(mu, phi)
            ok &= poincare(om, act_vectors(g, xi)) == twisted_act(g, 1, poincare(om, xi))
            # hence the composite form-to-form transform is equivariant for
            # the twisted action of the inverse transpose
            lhs = poincare(om, musical_inv(mu, act(g, phi)))
            rhs = twisted_act(
                g.inverse().transpose(), 1, poincare(om, musical_inv(mu, phi))
            )
            ok &= lhs == rhs
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < budget
    report(
        capsys,
        3,
        ok,
        f"volume-duality equivariance holds exactly on {checked} random positive-det pairs (n=3..7)",
        elapsed,
        budget,
    )


def test_criterion_4_stable_dimension_table(capsys, histograms):
    budget = 300.0
    hists, warm = histograms
    start = time.monotonic()
    expected = {6: 16, 7: 14, 8: 8}
    ok = True
    shares = {}
    for n, want in expected.items():
        hist = hists[n]
        good = sum(c for fp, c in hist.items() if fp.stab_dim == want)
        shares[n] = good / 500
        ok &= shares[n] >= 0.99
    phi0 = literature_form("G2-tilde-7")
    S = stabilizer_algebra(phi0)
    ok &= S.dim == 14
    ok &= orbit_dimension(phi0) == 35
    ok &= is_stable(phi0)
    p, q, z = killing_signature(S)
    ok &= z == 0 and 0 < q < S.dim  # non-definite: a split real form
    elapsed = warm + (time.monotonic() - start)
    ok = ok and elapsed < budget
    share_txt = ", ".join(f"n={n}: {shares[n]:.1%}" for n in sorted(shares))
    report(
        capsys,
        4,
        ok,
        f"stabilizer dims 16/14/8 hit ({share_txt}); split exceptional form checks out",
        elapsed,
        budget,
    )


def test_criterion_4_and_9_draws_match_the_generic_path():
    # fingerprint reads stable 3-forms on R^6, R^7 and R^8 off lambda, B
    # and Q, so the histograms of criteria 4 and 9 solve no stabilizer
    # there; the generic path checks the first 40 of those same draws
    for n in (6, 7, 8):
        for trial in range(40):
            phi = random_form(n, 3, 9, trial_rng(SEED, trial))
            S = stabilizer_algebra(phi)
            assert fingerprint(phi) == Fingerprint(rank_profile(phi), S.dim, killing_signature(S))


def test_criterion_5_stability_census(capsys):
    budget = 300.0
    start = time.monotonic()
    pairs = [(k, n) for k in range(3, 9) for n in range(2 * k, 9)]
    assert pairs == [(3, 6), (3, 7), (3, 8), (4, 8)]
    found = {}
    for k, n in pairs:
        dim_space = comb(n, k)
        hit = False
        for trial in range(200):
            phi = random_form(n, k, 9, trial_rng(SEED + 17 * n + k, trial))
            if n * n - stabilizer_algebra(phi).dim == dim_space:
                hit = True
        found[(k, n)] = hit
    expected = {(3, 6): True, (3, 7): True, (3, 8): True, (4, 8): False}
    elapsed = time.monotonic() - start
    ok = found == expected and elapsed < budget
    report(
        capsys,
        5,
        ok,
        f"stable forms detected exactly for {sorted(p for p, v in found.items() if v)} out of {pairs}",
        elapsed,
        budget,
    )


def test_criterion_6_orientation_reversing_witness(capsys):
    ok = True
    count = 0
    for trial in range(100):
        rng = trial_rng(SEED + 6, trial)
        n = 3 + trial % 5  # 3..7
        r = 1 + trial % (n - 1)
        k = 1 + trial % r if r > 1 else 1
        phi_small = random_nonzero_form(r, k, 5, rng)
        g = random_gl(n, rng, det_sign=1 if trial % 2 else -1)
        phi = act(g, inflate(phi_small, n))
        assert rank(phi) < n
        w = orientation_reversing_stabilizer_witness(phi)
        good = w.det < 0 and act(w, phi) == phi
        ok &= good
        count += good
    report(capsys, 6, ok, f"orientation-reversing stabilizer witness exact on {count}/100 degenerate forms")


def test_criterion_7_nilpotency_witness(capsys):
    ok = True
    count = 0
    for trial in range(50):
        rng = trial_rng(SEED + 7, trial)
        r = 3 + trial % 6  # 3..8, always degenerate inside R^9
        x_small = random_nonzero_form(r, 3, 4, rng)
        x = Polyvector(9, 3, dict(inflate(x_small, 9).terms))
        g = random_gl(9, rng, det_sign=1 if trial % 2 else -1)
        x = act_vectors(g, x)
        w = nilpotency_witness_degenerate(x)
        good = sum(w.exponents) == 0 and w.rate >= 1
        for t in (2, 3):
            curve = w.curve(t)
            good &= curve.det == 1
            good &= act_vectors(curve, x) == x * Fraction(t) ** w.rate
        ok &= good
        count += good
    report(capsys, 7, ok, f"traceless contraction curve scales exactly by t^m, m >= 1, on {count}/50 3-vectors in R^9")


def test_criterion_8_reduction_round_trip(capsys):
    ok = True
    count = 0
    for trial in range(100):
        rng = trial_rng(SEED + 8, trial)
        n = 3 + trial % 6  # 3..8
        r = 1 + trial % (n - 1)
        k = 1 + trial % r if r > 1 else 1
        phi_small = random_nonzero_form(r, k, 5, rng)
        g = random_gl(n, rng, det_sign=1 if trial % 2 else -1)
        phi = act(g, inflate(phi_small, n))
        red = reduce_form(phi)
        good = red.r == rank(phi_small)
        good &= red.reduced.n == red.r
        good &= red.reconstruct() == phi
        ok &= good
        count += good
    report(capsys, 8, ok, f"reduction recovers embedded rank and reconstructs exactly on {count}/100 forms")


def test_criterion_9_real_form_separation(capsys, histograms):
    hists, _ = histograms
    ok = True
    split = {}
    for n in (6, 7):
        hist = hists[n]
        dim_space = comb(n, 3)
        stable_classes = {
            fp.killing_signature
            for fp in hist
            if n * n - fp.stab_dim == dim_space
        }
        split[n] = len(stable_classes)
        ok &= split[n] == 2
    report(
        capsys,
        9,
        ok,
        f"stable samples split into exactly {split[6]} Killing classes for (6,3) and {split[7]} for (7,3) over 500 trials",
    )
