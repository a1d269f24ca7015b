"""Bell-violation measure, constant-measure curves, ceiling and purity link."""

import math

import numpy as np
import pytest

import xdoily as xd
from xdoily.bell import (
    bell_m_closed,
    bell_m_oracle,
    constant_m_curve,
    evaluate_m_at,
    heatmap_csv,
    heatmap_m,
    m_upper_bound,
    purity_equivalence_check,
    sample_constant_m_points,
)
from xdoily.spectra import classify, detect_type
from xdoily.states import Group2Params, group2_state, hyperplane_state

GROUP2_CENTERS = [p for p in xd.POINTS if xd.group_of(p) == 2]


def _params(beta0, m, t=1, tau=(0.0, 0.0)):
    return Group2Params(tau[0], tau[1], beta0, np.asarray(m, dtype=float), t)


def test_oracle_anchors():
    assert bell_m_oracle(np.diag([1.0, -1.0, 1.0])) == pytest.approx(2.0, abs=1e-14)
    assert bell_m_oracle(np.zeros((3, 3))) == 0.0
    for p in (0.3, 0.9):
        assert bell_m_oracle(np.diag([p, -p, p])) == pytest.approx(2 * p * p, abs=1e-14)
    with pytest.raises(ValueError):
        bell_m_oracle(np.zeros((2, 2)))


def test_closed_form_epr_report():
    report = bell_m_closed(_params(1.0, [[1.0, 0.0], [0.0, -1.0]]))
    assert report.b == 2.0
    assert report.u == 0.0
    assert report.m1 == 1.0 and report.m2 == 1.0
    assert report.branch == "beta0"
    assert report.m_value == 2.0

    zero = bell_m_closed(_params(0.0, np.zeros((2, 2))))
    assert zero.m_value == 0.0


def test_closed_form_branches():
    # beta0^2 < m1: both eigenvalues of M^T M beat beta0^2
    report = bell_m_closed(_params(0.1, [[0.9, 0.0], [0.0, 0.8]]))
    assert report.branch == "B"
    assert report.m_value == pytest.approx(0.9**2 + 0.8**2, abs=1e-14)
    # beta0^2 >= m1
    report = bell_m_closed(_params(0.9, [[0.5, 0.0], [0.0, 0.2]]))
    assert report.branch == "beta0"
    assert report.m_value == pytest.approx(0.81 + 0.25, abs=1e-14)


@pytest.mark.parametrize("center", GROUP2_CENTERS)
def test_closed_form_matches_oracle_per_family(center):
    rng = np.random.default_rng(center + 300)
    for _ in range(200):
        state = group2_state(
            center, *rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (2, 2))
        )
        params = xd.extract_group2_params(state)
        closed = bell_m_closed(params).m_value
        assert abs(closed - bell_m_oracle(state.coeffs.beta)) < 1e-10


def test_closed_form_matches_oracle_on_grids():
    rng = np.random.default_rng(77)
    for grid in xd.grids():
        if grid.index == 0:
            continue
        labels = grid.labels()
        for _ in range(100):
            state = hyperplane_state(grid, dict(zip(labels, rng.uniform(-1, 1, 9))))
            params = xd.extract_group2_params(state)
            closed = bell_m_closed(params).m_value
            assert abs(closed - bell_m_oracle(state.coeffs.beta)) < 1e-10


def test_curve_reference_configuration():
    curve = constant_m_curve(1.0, 0.45, 0.0, 0.6)
    assert curve.regime == "circle-ellipse-arcs"
    assert abs(curve.circle_radius - 0.8) < 1e-12
    # rounded anchors for this configuration: a ~ 0.893, b ~ 0.661
    assert abs(curve.ellipse_a - 0.893) < 5e-4
    assert abs(curve.ellipse_b - 0.661) < 5e-4
    assert abs(curve.ellipse_a - math.sqrt(1.0 - 0.45**2)) < 1e-15
    assert abs(curve.ellipse_b - math.sqrt(1.0 - 0.45**2 - 0.6**2)) < 1e-15
    assert len(curve.intersections) == 4
    for x, y in curve.intersections:
        assert abs(x * x + y * y - curve.circle_radius**2) < 1e-12
        assert abs((x / curve.ellipse_a) ** 2 + (y / curve.ellipse_b) ** 2 - 1.0) < 1e-12
    np.testing.assert_allclose(curve.foci, [(0.6, 0.0), (-0.6, 0.0)])


def test_curve_sampled_points_hit_the_level():
    for k, beta0, b3, b4 in ((1.0, 0.45, 0.0, 0.6), (1.0, 0.45, -0.3, 0.4), (1.3, 0.2, 0.25, -0.5)):
        curve = constant_m_curve(k, beta0, b3, b4)
        pts = sample_constant_m_points(curve, 100)
        assert len(pts) == 100
        for b1, b2 in pts:
            assert abs(evaluate_m_at(beta0, b3, b4, b1, b2) - k) < 1e-8


def test_curve_intersections_satisfy_both_conics_rotated():
    curve = constant_m_curve(1.0, 0.45, -0.3, 0.4)
    assert curve.regime == "circle-ellipse-arcs"
    for x, y in curve.intersections:
        assert abs(evaluate_m_at(0.45, -0.3, 0.4, x, y) - 1.0) < 1e-10
        assert abs(x * x + y * y - curve.circle_radius**2) < 1e-12


def test_curve_regimes():
    # level below beta0^2: nothing attains it
    assert constant_m_curve(0.2, 0.6, 0.0, 0.3).regime == "undefined"
    # beta0^2 above |C|^2: circle surrounds the ellipse
    curve = constant_m_curve(1.5, 0.9, 0.0, 0.3)
    assert curve.regime == "ellipse-only"
    assert curve.intersections == ()
    assert curve.circle_radius is not None
    assert curve.circle_radius > curve.ellipse_a
    # below the attainable minimum beta0^2 + |C|^2 the set is empty
    assert constant_m_curve(0.85, 0.9, 0.0, 0.3).regime == "undefined"


def test_curve_concentric_cases():
    # C = 0, beta0 != 0: concentric circles, level set is the inner one
    curve = constant_m_curve(1.0, 0.45, 0.0, 0.0)
    assert curve.regime == "ellipse-only"
    assert not curve.coincident
    assert abs(curve.ellipse_a - curve.ellipse_b) < 1e-15
    pts = sample_constant_m_points(curve, 32)
    for b1, b2 in pts:
        assert abs(evaluate_m_at(0.45, 0.0, 0.0, b1, b2) - 1.0) < 1e-10
    # C = 0, beta0 = 0: the two branches coincide
    curve = constant_m_curve(0.7, 0.0, 0.0, 0.0)
    assert curve.coincident
    assert curve.intersections == ()
    pts = sample_constant_m_points(curve, 16)
    for b1, b2 in pts:
        assert abs(evaluate_m_at(0.0, 0.0, 0.0, b1, b2) - 0.7) < 1e-10


def test_curve_crossing_window():
    # crossings exist exactly when beta0^2 <= |C|^2 (given a nonempty set)
    rng = np.random.default_rng(15)
    seen_with = seen_without = 0
    for _ in range(200):
        beta0 = float(rng.uniform(-1, 1))
        b3, b4 = rng.uniform(-0.8, 0.8, 2)
        c_sq = b3 * b3 + b4 * b4
        if c_sq < 1e-3:
            continue
        k = float(rng.uniform(0.1, 2.0))
        curve = constant_m_curve(k, beta0, b3, b4)
        if curve.regime == "undefined":
            continue
        m2 = k - beta0 * beta0
        expected = m2 <= k <= m2 + c_sq
        assert bool(curve.intersections) == expected
        seen_with += expected
        seen_without += not expected
    assert seen_with > 0 and seen_without > 0


def test_curve_sampling_errors():
    with pytest.raises(ValueError):
        sample_constant_m_points(constant_m_curve(0.2, 0.6, 0.0, 0.3), 10)
    with pytest.raises(ValueError):
        sample_constant_m_points(constant_m_curve(1.0, 0.45, 0.0, 0.6), 0)


def test_upper_bound_anchors():
    assert m_upper_bound(_params(0.45, np.zeros((2, 2)))) == pytest.approx(1.2025, abs=1e-12)
    epr = _params(1.0, [[1.0, 0.0], [0.0, -1.0]])
    assert m_upper_bound(epr) == pytest.approx(2.0, abs=1e-12)
    assert bell_m_closed(epr).m_value == 2.0  # attained


def test_upper_bound_dominates_measure_on_valid_draws():
    rng = np.random.default_rng(23)
    seen = 0
    while seen < 500:
        center = GROUP2_CENTERS[int(rng.integers(9))]
        tau1, tau2, beta0 = rng.uniform(-1, 1, 3)
        m = rng.uniform(-1, 1, (2, 2))
        state = group2_state(center, tau1, tau2, beta0, m)
        if not classify(state).valid:
            continue
        seen += 1
        params = Group2Params(tau1, tau2, beta0, m, detect_type(center))
        assert bell_m_closed(params).m_value <= m_upper_bound(params) + 1e-10


def test_upper_bound_rejects_invalid_embedding():
    # wildly invalid parameters drive the radicand negative
    with pytest.raises(ValueError):
        m_upper_bound(_params(0.9, [[1.0, 0.9], [-0.9, 1.0]], tau=(0.9, 0.9)))


def test_purity_equivalence_anchors():
    epr = _params(1.0, [[1.0, 0.0], [0.0, -1.0]])
    assert purity_equivalence_check(epr) == "pure_and_maximal"
    werner9 = _params(0.9, [[0.9, 0.0], [0.0, -0.9]])
    assert purity_equivalence_check(werner9) == "neither"
    with pytest.raises(ValueError):
        purity_equivalence_check(_params(0.5, np.zeros((2, 2)), tau=(0.1, 0.0)))


def test_purity_link_counts_tau_as_zero_as_the_disc_route_does():
    # |tau| = 5e-10 is over VALIDITY_TOL: both routes refuse it, and both take 1e-11 as zero.
    epr_m = [[1.0, 0.0], [0.0, -1.0]]
    for tau in ((5e-10, 0.0), (0.0, -5e-10)):
        params = _params(1.0, epr_m, tau=tau)
        with pytest.raises(ValueError):
            purity_equivalence_check(params)
        with pytest.raises(ValueError):
            xd.classify_by_region(params)
    near_zero = _params(1.0, epr_m, tau=(1e-11, -1e-11))
    assert purity_equivalence_check(near_zero) == "pure_and_maximal"
    assert xd.classify_by_region(near_zero) == "entangled"


@pytest.mark.parametrize("tau", [(np.nan, 0.0), (0.0, np.nan)])
def test_purity_link_rejects_nan_tau(tau):
    with pytest.raises(ValueError):
        purity_equivalence_check(_params(0.1, [[0.2, 0.1], [0.3, -0.4]], tau=tau))


def test_purity_equivalence_sweep():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 2000:
        beta0 = float(rng.uniform(-1, 1))
        m = rng.uniform(-1, 1, (2, 2))
        params = _params(beta0, m, t=1)
        if xd.classify_by_region(params) == "invalid":
            continue
        checked += 1
        assert purity_equivalence_check(params) != "violation_of_prop"


def test_heatmap_basics():
    rows = heatmap_m(0.45, -0.3, 0.4, 2)
    assert len(rows) == 4
    with pytest.raises(ValueError):
        heatmap_m(0.45, -0.3, 0.4, 1)
    with pytest.raises(ValueError):
        heatmap_m(0.45, -0.3, 0.4, 8, t=5)


def test_heatmap_violating_cells_are_entangled():
    center = next(c for c in GROUP2_CENTERS if detect_type(c) == 1)
    rows = heatmap_m(0.45, -0.3, 0.4, 60, t=1)
    hot = [(b1, b2, m) for b1, b2, m in rows if m is not None and m > 1.0]
    assert hot
    for b1, b2, m in hot:
        assert m <= 1.0 + 0.45**2 + 1e-10
        state = group2_state(center, 0.0, 0.0, 0.45, np.array([[b1, b2], [-0.3, 0.4]]))
        assert classify(state).entangled


def test_heatmap_csv_format():
    rows = heatmap_m(0.45, -0.3, 0.4, 4)
    text = heatmap_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "beta1,beta2,m"
    assert len(lines) == 17
    # invalid cells leave the measure column empty
    empties = [ln for ln in lines[1:] if ln.endswith(",")]
    assert empties
