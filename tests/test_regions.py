"""Disc-geometry classification against the PPT oracle."""

import numpy as np
import pytest

import xdoily as xd
from xdoily.regions import (
    classify_by_region,
    dual_classify_by_region,
    l_minus,
    l_plus,
    region_csv,
    region_emptiness,
    region_geometry,
    region_params_for_state,
    sample_region,
    sign_rule_fuzz,
)
from xdoily.spectra import classify, detect_type
from xdoily.states import Group2Params, group2_state

GROUP2_CENTERS = [p for p in xd.POINTS if xd.group_of(p) == 2]


def _params(beta0, m, t=1, tau=(0.0, 0.0)):
    return Group2Params(tau[0], tau[1], beta0, np.asarray(m, dtype=float), t)


def test_l_plus_l_minus_anchors():
    epr = _params(1.0, [[1.0, 0.0], [0.0, -1.0]])
    assert l_plus(epr) == 0.0
    assert l_minus(epr) == 2.0

    zero = _params(0.0, np.zeros((2, 2)))
    assert l_plus(zero) == 0.0 and l_minus(zero) == 0.0

    for p in (0.3, 0.8):
        werner = _params(p, [[p, 0.0], [0.0, -p]])
        assert abs(l_plus(werner)) < 1e-15
        assert abs(l_minus(werner) - 2 * p) < 1e-15


def test_geometry_fields_and_distances():
    params = _params(-0.5, [[0.2, 0.3], [0.1, 0.15]], t=1)
    g = region_geometry(params)
    np.testing.assert_allclose(g.c, [0.15, 0.1])
    np.testing.assert_allclose(g.d, [0.2, 0.3])
    np.testing.assert_allclose(g.e, [0.2, -0.3])
    np.testing.assert_allclose(g.f, [0.15, -0.1])
    assert g.r == 0.5 and g.big_r == 1.5
    assert g.r + g.big_r == 2.0
    assert g.sign_factor == 1.0  # (-1)^1 * sgn(-0.5)
    # the radicals are the distances from C to -E and to E
    assert abs(g.l_minus - np.hypot(*(g.c - g.e))) < 1e-15
    assert abs(g.l_plus - np.hypot(*(g.c + g.e))) < 1e-15


def test_sign_factor_conventions():
    m = np.zeros((2, 2))
    assert region_geometry(_params(0.0, m, t=1)).sign_factor == -1.0  # sgn(0) := +1
    assert region_geometry(_params(0.0, m, t=2)).sign_factor == 1.0
    assert region_geometry(_params(0.3, m, t=1)).sign_factor == -1.0
    assert region_geometry(_params(-0.3, m, t=2)).sign_factor == -1.0


def test_classify_anchors():
    epr = _params(1.0, [[1.0, 0.0], [0.0, -1.0]], t=1)
    assert classify_by_region(epr) == "entangled"
    assert dual_classify_by_region(epr) == "entangled"
    zero = _params(0.0, np.zeros((2, 2)), t=1)
    assert classify_by_region(zero) == "separable"
    assert dual_classify_by_region(zero) == "separable"


def test_classify_rejects_nonzero_tau():
    with pytest.raises(ValueError):
        classify_by_region(_params(0.1, np.zeros((2, 2)), tau=(0.2, 0.0)))
    with pytest.raises(ValueError):
        dual_classify_by_region(_params(0.1, np.zeros((2, 2)), tau=(0.0, 0.2)))


@pytest.mark.parametrize("route", [classify_by_region, dual_classify_by_region])
@pytest.mark.parametrize("tau", [(np.nan, 0.0), (0.0, np.nan)])
def test_classify_rejects_nan_tau(route, tau):
    with pytest.raises(ValueError):
        route(_params(0.1, [[0.2, 0.1], [0.3, -0.4]], tau=tau))


@pytest.mark.parametrize("center", GROUP2_CENTERS)
def test_region_matches_ppt(center):
    t = detect_type(center)
    rng = np.random.default_rng(center + 100)
    for _ in range(400):
        beta0 = float(rng.uniform(-1, 1))
        m = rng.uniform(-1, 1, (2, 2))
        params = _params(beta0, m, t=t)
        spectral = classify(group2_state(center, 0.0, 0.0, beta0, m)).verdict
        assert classify_by_region(params) == spectral
        assert dual_classify_by_region(params) == spectral


def test_region_emptiness_anchors():
    assert region_emptiness(0.45, -0.3, 0.4) == (True, True)  # 0.25 <= 0.3025
    assert region_emptiness(0.0, 1.0, 1.0) == (False, False)  # |C|^2 = 2 > 1
    assert region_emptiness(0.9, 0.0, 0.5) == (True, False)   # 0.25 > 0.01


def test_sample_region_minimum_resolution():
    rows = sample_region(0.3, 0.1, 0.2, 1, 2)
    assert len(rows) == 4
    assert all(cls in ("invalid", "separable", "entangled") for _, _, cls in rows)
    with pytest.raises(ValueError):
        sample_region(0.3, 0.1, 0.2, 1, 1)
    with pytest.raises(ValueError):
        sample_region(0.3, 0.1, 0.2, 3, 8)


def test_sample_region_beta0_zero_has_no_entangled_cells():
    rows = sample_region(0.0, -0.3, 0.4, 1, 40)
    assert all(cls != "entangled" for _, _, cls in rows)


def test_sample_region_matches_ppt_cellwise():
    # annulus parameters: all three classes appear, and each sampled cell
    # agrees with the PPT verdict of the assembled state
    center = next(c for c in GROUP2_CENTERS if detect_type(c) == 1)
    rows = sample_region(0.45, -0.3, 0.4, 1, 21)
    classes = {cls for _, _, cls in rows}
    assert classes == {"invalid", "separable", "entangled"}
    for b1, b2, cls in rows:
        m = np.array([[b1, b2], [-0.3, 0.4]])
        assert cls == classify(group2_state(center, 0.0, 0.0, 0.45, m)).verdict


def test_region_csv_format():
    text = region_csv(sample_region(0.3, 0.0, 0.0, 1, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "beta1,beta2,class"
    assert len(lines) == 5
    assert lines[1].split(",")[2] in ("invalid", "separable", "entangled")


def test_sign_rule_fuzz_zero_counterexamples():
    report = sign_rule_fuzz(3000, seed=2)
    assert report.tested > 0
    assert report.passed
    assert report.counterexamples == []


def test_sign_rule_fuzz_validations():
    with pytest.raises(ValueError):
        sign_rule_fuzz(-1)


@pytest.mark.parametrize("t", [0, 3, 1.5, "1"])
@pytest.mark.parametrize("route", [classify_by_region, dual_classify_by_region, xd.m_upper_bound])
def test_type_tag_outside_one_and_two_is_rejected(route, t):
    with pytest.raises(ValueError, match=f"type tag must be 1 or 2, got {t!r}"):
        route(Group2Params(0.0, 0.0, -0.5, np.array([[0.2, 0.1], [0.3, -0.4]]), t))


def test_region_params_for_state():
    werner = xd.make_named_state("werner", p=0.5)
    params = region_params_for_state(werner)
    assert params is not None and params.beta0 == 0.5

    polarized = xd.hyperplane_state(
        xd.perp_set(xd.pauli_to_point("ZZ")), {"ZI": 0.4, "ZZ": 0.2}
    )
    assert region_params_for_state(polarized) is None

    # |tau| up to VALIDITY_TOL counts as zero, as it does in the disc routes.
    zz = xd.perp_set(xd.pauli_to_point("ZZ"))
    near_zero = xd.hyperplane_state(zz, {"ZI": 1e-11, "XX": 0.5})
    params = region_params_for_state(near_zero)
    assert params is not None and classify_by_region(params) == "separable"
    assert region_params_for_state(xd.hyperplane_state(zz, {"ZI": 2e-10, "XX": 0.5})) is None

    assert region_params_for_state(xd.make_named_state("q0_state")) is None
    assert region_params_for_state(xd.make_named_state("ovoid_o1_state")) is None

    q5 = xd.make_named_state("q5_state", coefficients={"XX": 0.1, "ZZ": 0.2})
    assert region_params_for_state(q5) is not None
    q5_tau = xd.make_named_state("q5_state", coefficients={"XI": 0.3, "XX": 0.1})
    assert region_params_for_state(q5_tau) is None

    group1 = xd.hyperplane_state(xd.perp_set(xd.pauli_to_point("IX")), {})
    assert region_params_for_state(group1) is None
