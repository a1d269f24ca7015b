"""The verify suites: the general-tau proposal and the checks' targets."""

import numpy as np
import pytest

from xdoily import verify
from xdoily.spectra import INVALID, VALIDITY_TOL, ppt_verdicts
from xdoily.states import density_batch, group2_batch

CENTERS, _ = verify._group2_families()


def _outcome_probabilities(tau1, tau2, beta0) -> np.ndarray:
    """(n, 4) probabilities (1 + s1 tau1 + s2 tau2 + s1 s2 beta0) / 4 for (s1, s2) = ++, +-, -+, --."""
    s1 = np.array([1, 1, -1, -1])
    s2 = np.array([1, -1, 1, -1])
    return (1 + np.outer(tau1, s1) + np.outer(tau2, s2) + np.outer(beta0, s1 * s2)) / 4


def _cube_draws(rng, n):
    x = rng.uniform(-1, 1, (n, 7))
    return x[:, 0], x[:, 1], x[:, 2], x[:, 3:].reshape(n, 2, 2)


def _valid_draws(propose, seed, target, chunk=4096):
    """(k, 7) rows (tau1, tau2, beta0, M row-major) of the first valid draws, families cycling."""
    rng = np.random.default_rng(seed)
    rows = []
    done = seen = 0
    while seen < target:
        tau1, tau2, beta0, m = propose(rng, chunk)
        family = (done + np.arange(chunk)) % len(CENTERS)
        done += chunk
        valid = ppt_verdicts(density_batch(group2_batch(CENTERS[family], tau1, tau2, beta0, m))) != INVALID
        rows.append(np.column_stack([tau1, tau2, beta0, m.reshape(chunk, 4)])[valid])
        seen += rows[-1].shape[0]
    return np.concatenate(rows)[:target]


def test_valid_cube_draws_have_nonnegative_outcome_probabilities():
    rng = np.random.default_rng(11)
    n = 54_000  # 6,000 per family
    tau1, tau2, beta0, m = _cube_draws(rng, n)
    family = np.arange(n) % len(CENTERS)
    valid = ppt_verdicts(density_batch(group2_batch(CENTERS[family], tau1, tau2, beta0, m))) != INVALID
    assert np.count_nonzero(valid) > 500
    probs = _outcome_probabilities(tau1[valid], tau2[valid], beta0[valid])
    assert probs.min() >= -VALIDITY_TOL


def test_general_tau_draws_lie_in_the_tetrahedron():
    tau1, tau2, beta0, m = verify._general_tau_draws(np.random.default_rng(5), 20_000)
    assert tau1.shape == tau2.shape == beta0.shape == (20_000,) and m.shape == (20_000, 2, 2)
    assert _outcome_probabilities(tau1, tau2, beta0).min() >= -1e-15
    assert np.abs(m).max() <= 1.0


@pytest.mark.parametrize("cube_seed, tetra_seed", [(21, 22), (42, 43)])
def test_tetrahedron_and_cube_accept_the_same_distribution(cube_seed, tetra_seed):
    # Each coordinate's mean and second moment over the valid draws agree within 4 standard errors.
    target = 2000
    cube = _valid_draws(_cube_draws, cube_seed, target)
    tetra = _valid_draws(verify._general_tau_draws, tetra_seed, target)
    for a, b in ((cube, tetra), (cube * cube, tetra * tetra)):
        se = np.sqrt(a.var(axis=0, ddof=1) / target + b.var(axis=0, ddof=1) / target)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se)


def test_general_tau_check_needs_its_full_target(monkeypatch):
    monkeypatch.setattr(verify, "ppt_verdicts", lambda rho: np.full(rho.shape[:-2], INVALID))
    checks = {c.name: c for c in verify.nonlocality_suite(seed=0, draws=10)}
    general = checks["general-tau ceiling holds on valid draws"]
    assert not general.passed
    assert general.detail == "0 violations over 0 valid draws"
