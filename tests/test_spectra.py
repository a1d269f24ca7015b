"""Closed-form spectra against the numeric oracle; PPT classification."""

import numpy as np
import pytest

import xdoily as xd
from xdoily.spectra import (
    classify,
    detect_type,
    detected_types,
    eig_hermitian4,
    group1_eigenvalues,
    group2_eigenvalues,
    group2_eigenvalues_batch,
)
from xdoily.states import Group1Params, Group2Params, group1_state, group2_state

GROUP1_CENTERS = [p for p in xd.POINTS if xd.group_of(p) == 1]
GROUP2_CENTERS = [p for p in xd.POINTS if xd.group_of(p) == 2]


def test_eig_hermitian4_basics():
    np.testing.assert_allclose(eig_hermitian4(np.eye(4) / 4), [0.25] * 4)
    np.testing.assert_allclose(eig_hermitian4(np.diag([0.4, 0.1, 0.3, 0.2])), [0.1, 0.2, 0.3, 0.4])


def test_eig_hermitian4_epr_projector():
    # characteristic polynomial of the rank-one projector: l^3 (l - 1)
    rho = xd.build_density_matrix(xd.make_named_state("epr_phi_plus"))
    np.testing.assert_allclose(eig_hermitian4(rho), [0, 0, 0, 1], atol=1e-12)


def test_eig_hermitian4_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        eig_hermitian4(bad)
    with pytest.raises(ValueError):
        eig_hermitian4(np.eye(3))


def test_eig_hermitian4_bound_scales_with_the_entries():
    # Assembled in doubles, U diag(w) U^H is Hermitian only up to rounding of
    # the size of w; an absolute bound of 1e-12 rejected this one.
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    w = 1e5 * np.array([0.1, 0.2, 0.3, 0.4])
    h = u @ np.diag(w) @ u.conj().T
    assert np.max(np.abs(h - h.conj().T)) > 1e-12
    np.testing.assert_allclose(eig_hermitian4(h), w, rtol=1e-12)
    np.testing.assert_allclose(eig_hermitian4(np.stack([np.eye(4), h]))[1], w, rtol=1e-12)
    bad = h.copy()
    bad[0, 1] += 1e-6  # 1e-11 of the scale: still far from Hermitian
    with pytest.raises(ValueError):
        eig_hermitian4(bad)
    with pytest.raises(ValueError):  # the scale is per matrix, not the stack's
        eig_hermitian4(np.stack([h, np.eye(4) + np.triu(np.ones((4, 4)), 1) * 1e-9]))


def test_eig_sum_equals_trace():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        assert abs(np.sum(eig_hermitian4(h)) - np.trace(h).real) < 1e-10


def test_group1_closed_form_anchors():
    zero = Group1Params(0.0, np.zeros(3), np.zeros(3))
    lam, gam = group1_eigenvalues(zero)
    np.testing.assert_allclose(lam, [0.25] * 4)
    np.testing.assert_allclose(gam, [0.25] * 4)

    lam, gam = group1_eigenvalues(Group1Params(1.0, np.zeros(3), np.zeros(3)))
    np.testing.assert_allclose(lam, [0, 0, 0.5, 0.5])
    np.testing.assert_allclose(gam, lam)


@pytest.mark.parametrize("center", GROUP1_CENTERS)
def test_group1_closed_form_matches_oracle(center):
    rng = np.random.default_rng(center)
    for _ in range(300):
        state = group1_state(
            center, rng.uniform(-1, 1), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        )
        rho = xd.build_density_matrix(state)
        eigs = eig_hermitian4(rho)
        eigs_g = eig_hermitian4(xd.partial_transpose(rho))
        lam, gam = group1_eigenvalues(xd.extract_group1_params(state))
        assert np.max(np.abs(lam - eigs)) < 1e-10
        assert np.max(np.abs(gam - eigs_g)) < 1e-10
        # the state and its partial transpose share one spectrum
        assert np.max(np.abs(eigs - eigs_g)) < 1e-10


def test_group2_closed_form_anchors():
    zero = Group2Params(0.0, 0.0, 0.0, np.zeros((2, 2)), 1)
    lam, gam = group2_eigenvalues(zero)
    np.testing.assert_allclose(lam, [0.25] * 4)
    np.testing.assert_allclose(gam, [0.25] * 4)

    epr = Group2Params(0.0, 0.0, 1.0, np.array([[1.0, 0.0], [0.0, -1.0]]), 1)
    lam, gam = group2_eigenvalues(epr)
    np.testing.assert_allclose(lam, [0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(gam, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_group2_forms_agree_at_zero_coefficients():
    # degenerate point: both forms give the maximally mixed spectrum
    for t in (1, 2):
        lam, gam = group2_eigenvalues(Group2Params(0.0, 0.0, 0.0, np.zeros((2, 2)), t))
        np.testing.assert_allclose(lam, [0.25] * 4)
        np.testing.assert_allclose(gam, [0.25] * 4)


def test_group2_types_swap_spectra():
    rng = np.random.default_rng(5)
    m = rng.uniform(-1, 1, (2, 2))
    p1 = Group2Params(0.2, -0.4, 0.6, m, 1)
    p2 = Group2Params(0.2, -0.4, 0.6, m, 2)
    lam1, gam1 = group2_eigenvalues(p1)
    lam2, gam2 = group2_eigenvalues(p2)
    np.testing.assert_allclose(lam1, gam2)
    np.testing.assert_allclose(gam1, lam2)
    with pytest.raises(ValueError):
        group2_eigenvalues(Group2Params(0, 0, 0, m, 3))


@pytest.mark.parametrize("center", GROUP2_CENTERS)
def test_group2_closed_form_matches_oracle(center):
    t = detect_type(center)
    rng = np.random.default_rng(center)
    for _ in range(300):
        tau1, tau2, beta0 = rng.uniform(-1, 1, 3)
        m = rng.uniform(-1, 1, (2, 2))
        state = group2_state(center, tau1, tau2, beta0, m)
        rho = xd.build_density_matrix(state)
        lam, gam = group2_eigenvalues(Group2Params(tau1, tau2, beta0, m, t))
        assert np.max(np.abs(lam - eig_hermitian4(rho))) < 1e-10
        assert np.max(np.abs(gam - eig_hermitian4(xd.partial_transpose(rho)))) < 1e-10


def test_detect_type_resolves_all_families():
    types = detected_types()
    assert len(types) == 9
    assert set(types.values()) <= {1, 2}
    # the standard X-family follows the first form (hand derivation)
    assert types["ZZ"] == 1


def _fitted_type(center, seed, draws=40, tol=1e-8):
    """The family type found by fitting both closed forms to eigvalsh over
    seeded draws on the family's perp-set; exactly one form must match."""
    rng = np.random.default_rng((seed, center))
    x = rng.uniform(-1.0, 1.0, (draws, 7))  # per draw: tau1, tau2, beta0, then M row-major
    tau1, tau2, beta0, m = x[:, 0], x[:, 1], x[:, 2], x[:, 3:].reshape(draws, 2, 2)
    rho = xd.density_batch(xd.group2_batch(center, tau1, tau2, beta0, m))
    eigs = np.linalg.eigvalsh(rho)
    eigs_g = np.linalg.eigvalsh(xd.partial_transpose(rho))
    matching = []
    for t in (1, 2):
        lam, gam = group2_eigenvalues_batch(Group2Params(tau1, tau2, beta0, m, t))
        if np.all(np.abs(lam - eigs) <= tol) and np.all(np.abs(gam - eigs_g) <= tol):
            matching.append(t)
    assert len(matching) == 1, (xd.point_to_pauli(center), matching)
    return matching[0]


def test_y_parity_rule_matches_the_fit():
    for seed in (20, 321, 7):
        for center in GROUP2_CENTERS:
            assert _fitted_type(center, seed) == detect_type(center)
    assert " ".join(f"{lab}:{t}" for lab, t in sorted(detected_types().items())) == (
        "XX:1 XY:2 XZ:1 YX:2 YY:1 YZ:2 ZX:1 ZY:2 ZZ:1"
    )


def test_detect_type_rejects_group1_center():
    with pytest.raises(ValueError):
        detect_type(GROUP1_CENTERS[0])


def test_classify_werner_thresholds():
    assert classify(xd.make_named_state("werner", p=0.5)).entangled
    report = classify(xd.make_named_state("werner", p=0.3))
    assert report.valid and report.separable and not report.entangled
    assert classify(xd.make_named_state("werner", p=0.3)).verdict == "separable"


def test_classify_flags_are_consistent():
    rng = np.random.default_rng(8)
    for _ in range(200):
        center = GROUP2_CENTERS[int(rng.integers(9))]
        state = group2_state(
            center, *rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (2, 2))
        )
        rep = classify(state)
        if rep.valid:
            assert rep.separable != rep.entangled
        else:
            assert not rep.separable and not rep.entangled
        assert abs(float(np.sum(rep.eigs_rho)) - 1.0) < 1e-10
        assert abs(float(np.sum(rep.eigs_gamma)) - 1.0) < 1e-10


def test_valid_group1_states_are_separable():
    rng = np.random.default_rng(17)
    seen_valid = 0
    for _ in range(400):
        center = GROUP1_CENTERS[int(rng.integers(6))]
        state = group1_state(
            center, rng.uniform(-1, 1), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        )
        rep = classify(state)
        if rep.valid:
            seen_valid += 1
            assert rep.separable
    assert seen_valid > 0


def test_report_json_round_trip():
    rep = classify(xd.make_named_state("werner", p=0.9))
    payload = rep.to_json()
    assert payload["entangled"] is True
    assert len(payload["eigenvalues"]) == 4
    assert payload["valid"] is True
