"""Batched kernels against per-state computations on fixed seeds.

The references below are per-state loops: the Pauli sum and numpy's
eigensolver for spectra, the scalar oracle for the Bell measure, and a
per-state transcription of the disc rules for the region classes.

Tolerances are fixed from float64, not from observed errors.  Every draw
is uniform in [-1, 1], so density matrices have entries of order one and
spectra inside [-1, 2], and beta^T beta has entries below 3.  An
eigensolver's backward error is a few n * eps * |A| (n <= 4,
eps = 2.2e-16), about 1e-15 here, and each closed form adds a handful of
roundings of the same size.  1e-12 leaves three orders of magnitude of
margin.  The disc classes compare exactly: the kernels perform the same
operations as the per-state rules.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import xdoily as xd
from xdoily import cli
from xdoily.bell import bell_m_closed_batch, bell_m_oracle, bell_m_oracle_batch
from xdoily.regions import (
    SIGN_RULE_MIN_TESTED,
    classify_by_region_batch,
    dual_classify_by_region_batch,
    sign_rule_fuzz,
)
from xdoily.spectra import (
    CLASSES,
    ENTANGLED,
    INVALID,
    SEPARABLE,
    classify_batch,
    eig_hermitian4,
    group1_eigenvalues_batch,
    group2_eigenvalues_batch,
    ppt_verdicts,
)
from xdoily.states import (
    ALL_LABELS,
    PAULI_TENSOR,
    Group1Params,
    Group2Params,
    beta_batch,
    density_batch,
    group1_batch,
    group1_params_batch,
    group2_batch,
    group2_params_batch,
    hyperplane_batch,
    partial_transpose,
    pauli_matrix,
)
from xdoily.verify import SUITES, run_suites

SPECTRUM_TOL = 1e-12
MEASURE_TOL = 1e-12

DATA = Path(__file__).parent / "data"
GROUP1_CENTERS = [p for p in xd.POINTS if xd.group_of(p) == 1]
GROUP2_CENTERS = [p for p in xd.POINTS if xd.group_of(p) == 2]
TYPES = {c: xd.detect_type(c) for c in GROUP2_CENTERS}


def _pauli_sum(vector) -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for label, v in zip(ALL_LABELS, vector):
        rho = rho + v * pauli_matrix(label)
    return rho / 4.0


def _reference_disc_class(beta0, m, t, dual=False) -> str:
    (b1, b2), (b3, b4) = m
    sign = (-1.0) ** t * (1.0 if beta0 >= 0.0 else -1.0)
    r, big_r, tol = 1.0 - abs(beta0), 1.0 + abs(beta0), 1e-10
    point, center = (np.array([b4, -b3]), np.array([b1, b2])) if dual else (np.array([b1, -b2]), np.array([b4, b3]))

    def inside(p, c, radius):
        return bool(np.hypot(*(p - c)) <= radius + tol)

    signed = sign * point
    if not (inside(signed, center, r) and inside(signed, -center, big_r)):
        return "invalid"
    if inside(point, center, r) and inside(point, -center, r):
        return "separable"
    return "entangled"


def _tau0_draws(seed, n):
    rng = np.random.default_rng(seed)
    beta0 = rng.uniform(-1, 1, n)
    m = rng.uniform(-1, 1, (n, 2, 2))
    # Exact zeros exercise sgn(0) := +1, with both signs of zero.
    beta0[:4] = [0.0, -0.0, 0.0, -0.0]
    return beta0, m


@pytest.mark.parametrize("seed", [5, 6])
def test_disc_classes_match_per_state_rules(seed):
    n = 3000
    beta0, m = _tau0_draws(seed, n)
    t = np.where(np.arange(n) % 2 == 0, 1, 2)
    params = Group2Params(0.0, 0.0, beta0, m, t)
    primal = classify_by_region_batch(params)
    dual = dual_classify_by_region_batch(params)
    for k in range(n):
        assert CLASSES[primal[k]] == _reference_disc_class(beta0[k], m[k], t[k])
        assert CLASSES[dual[k]] == _reference_disc_class(beta0[k], m[k], t[k], dual=True)
        one = Group2Params(0.0, 0.0, float(beta0[k]), m[k], int(t[k]))
        assert xd.classify_by_region(one) == CLASSES[primal[k]]


def test_grid_rows_match_per_cell_rules():
    rows = xd.sample_region(0.45, -0.3, 0.4, 2, 30)
    for b1, b2, cls in rows:
        assert cls == _reference_disc_class(0.45, [[b1, b2], [-0.3, 0.4]], 2)


def test_density_and_ppt_match_per_state_eigensolver():
    rng = np.random.default_rng(7)
    hyperplanes = xd.enumerate_hyperplanes()
    for h in hyperplanes:
        vectors = hyperplane_batch(h, rng.uniform(-1, 1, (40, h.size)))
        rho = density_batch(vectors)
        eigs_rho, eigs_gamma, verdicts = classify_batch(rho)
        np.testing.assert_array_equal(eigs_rho, [eig_hermitian4(one) for one in rho])
        for k, v in enumerate(vectors):
            ref = _pauli_sum(v)
            np.testing.assert_allclose(rho[k], ref, rtol=0, atol=1e-15)
            ref_rho = np.linalg.eigvalsh(ref)
            ref_gamma = np.linalg.eigvalsh(partial_transpose(ref))
            assert np.max(np.abs(eigs_rho[k] - ref_rho)) <= SPECTRUM_TOL
            assert np.max(np.abs(eigs_gamma[k] - ref_gamma)) <= SPECTRUM_TOL
            assert CLASSES[verdicts[k]] == xd.spectra.classify_matrix(ref).verdict


def _density_loop(vectors) -> np.ndarray:
    """density_batch as a label loop: c_k P_k added to the identity one label
    at a time in ALL_LABELS order, skipping slots zero in every vector."""
    c = np.asarray(vectors, dtype=float)
    rho = np.zeros(c.shape[:-1] + (4, 4), dtype=complex)
    rho[..., range(4), range(4)] = 1.0
    for k in np.flatnonzero(c.reshape(-1, 15).any(axis=0)):
        rho += c[..., k, None, None] * PAULI_TENSOR[k]
    return rho / 4.0


def _assert_bit_identical(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got.view(float)), np.signbit(ref.view(float)))


@pytest.mark.parametrize("scale", [1e-5, 1e-2, 1.0, 1e2, 1e5])
@pytest.mark.parametrize("shape", [(15,), (300, 15), (2, 3, 15), (0, 15)])
def test_density_batch_is_bit_identical_to_label_loop(scale, shape):
    rng = np.random.default_rng(11)
    dense = rng.uniform(-1, 1, shape) * scale
    sparse = np.where(rng.random(shape) < 0.7, 0.0, dense)
    sparse[rng.random(shape) < 0.1] = -0.0
    for vectors in (dense, sparse, -sparse):
        _assert_bit_identical(density_batch(vectors), _density_loop(vectors))


def test_density_batch_is_bit_identical_when_support_varies_by_row():
    rng = np.random.default_rng(12)
    hyperplanes = xd.enumerate_hyperplanes()
    # One row per hyperplane: every slot is nonzero in some rows only.
    every = np.stack([hyperplane_batch(h, rng.uniform(-1, 1, h.size)) for h in hyperplanes])
    # Two perp-sets: slots off both are zero in every row.
    pair = np.concatenate(
        [hyperplane_batch(h, rng.uniform(-3, 3, (5, h.size))) for h in hyperplanes[:2]]
    )
    for vectors in (every, pair, every[:, None, :].repeat(2, axis=1)):
        _assert_bit_identical(density_batch(vectors), _density_loop(vectors))


def _ppt_batches():
    rng = np.random.default_rng(13)
    hyperplanes = xd.enumerate_hyperplanes()
    mixed = density_batch(
        np.concatenate([hyperplane_batch(h, rng.uniform(-1, 1, (20, h.size))) for h in hyperplanes])
    )
    invalid = density_batch(rng.uniform(-1, 1, (50, 15)) * 4.0)
    # Werner states over their whole valid range, separable up to p = 1/3.
    p = np.linspace(-1.0 / 3.0, 1.0, 25)
    werner = np.zeros((len(p), 15))
    werner[:, [ALL_LABELS.index(label) for label in ("XX", "YY", "ZZ")]] = np.stack([p, -p, p], axis=-1)
    valid = density_batch(np.concatenate([werner, rng.uniform(-1, 1, (50, 15)) * 0.05]))
    return {
        "all invalid": invalid,
        "all valid": valid,
        "mixed": mixed,
        "empty": np.zeros((0, 4, 4), dtype=complex),
        "stacked": mixed[:6].reshape(2, 3, 4, 4),
        "one matrix": mixed[0],
    }


@pytest.mark.parametrize("name", ["all invalid", "all valid", "mixed", "empty", "stacked", "one matrix"])
def test_ppt_verdicts_equal_classify_batch(name):
    rho = _ppt_batches()[name]
    verdicts = ppt_verdicts(rho)
    ref = classify_batch(rho)[2]
    assert verdicts.shape == ref.shape == rho.shape[:-2] and verdicts.dtype == ref.dtype
    np.testing.assert_array_equal(verdicts, ref)
    seen = set(np.unique(ref).tolist())
    expected = {
        "all invalid": {INVALID},
        "all valid": {SEPARABLE, ENTANGLED},
        "mixed": {INVALID, SEPARABLE, ENTANGLED},
        "empty": set(),
    }
    assert seen == expected.get(name, seen)


def test_eig_hermitian4_rejects_a_stack_with_one_non_hermitian_matrix():
    stack = np.stack([np.eye(4, dtype=complex)] * 3)
    np.testing.assert_array_equal(eig_hermitian4(stack), np.ones((3, 4)))
    stack[1, 0, 1] = 1e-6
    with pytest.raises(ValueError):
        eig_hermitian4(stack)


def test_group1_closed_form_matches_per_state_eigensolver():
    rng = np.random.default_rng(8)
    for center in GROUP1_CENTERS:
        x = rng.uniform(-1, 1, (200, 7))
        vectors = group1_batch(center, x[:, 0], x[:, 1:4], x[:, 4:7])
        lam = group1_eigenvalues_batch(Group1Params(x[:, 0], x[:, 1:4], x[:, 4:7]))
        for k in range(len(x)):
            state = xd.group1_state(center, x[k, 0], x[k, 1:4], x[k, 4:7])
            np.testing.assert_array_equal(vectors[k], state.coeffs.vector())
            ref = np.linalg.eigvalsh(_pauli_sum(vectors[k]))
            assert np.max(np.abs(lam[k] - ref)) <= SPECTRUM_TOL
            assert np.max(np.abs(xd.group1_eigenvalues(xd.extract_group1_params(state))[0] - ref)) <= SPECTRUM_TOL
        back = group1_params_batch(center, vectors)
        np.testing.assert_array_equal(back.tau, x[:, 1:4])
        np.testing.assert_array_equal(back.beta, x[:, 4:7])


def test_group2_closed_form_matches_per_state_eigensolver():
    rng = np.random.default_rng(9)
    n = 900
    centers = np.array(GROUP2_CENTERS)[np.arange(n) % 9]
    x = rng.uniform(-1, 1, (n, 7))
    tau1, tau2, beta0, m = x[:, 0], x[:, 1], x[:, 2], x[:, 3:].reshape(n, 2, 2)
    t = np.array([TYPES[int(c)] for c in centers])
    vectors = group2_batch(centers, tau1, tau2, beta0, m)
    lam, gam = group2_eigenvalues_batch(Group2Params(tau1, tau2, beta0, m, t))
    for k in range(n):
        state = xd.group2_state(int(centers[k]), tau1[k], tau2[k], beta0[k], m[k])
        np.testing.assert_array_equal(vectors[k], state.coeffs.vector())
        ref = _pauli_sum(vectors[k])
        assert np.max(np.abs(lam[k] - np.linalg.eigvalsh(ref))) <= SPECTRUM_TOL
        assert np.max(np.abs(gam[k] - np.linalg.eigvalsh(partial_transpose(ref)))) <= SPECTRUM_TOL
    back = group2_params_batch(centers, vectors, t)
    np.testing.assert_array_equal(back.m, m)
    np.testing.assert_array_equal(back.beta0, beta0)


def test_bell_closed_matches_per_state_oracle():
    rng = np.random.default_rng(10)
    families = [(xd.perp_set(c), c) for c in GROUP2_CENTERS]
    families += [(g, xd.associated_center(g)) for g in xd.grids() if g.index != 0]
    for h, center in families:
        vectors = hyperplane_batch(h, rng.uniform(-1, 1, (60, h.size)))
        closed = bell_m_closed_batch(group2_params_batch(center, vectors, 1)).m_value
        betas = beta_batch(vectors)
        oracle = bell_m_oracle_batch(betas)
        for k in range(len(vectors)):
            ref = bell_m_oracle(betas[k])
            assert abs(closed[k] - ref) <= MEASURE_TOL
            assert abs(oracle[k] - ref) <= MEASURE_TOL


def _run_cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


# The golden files were written by the per-cell grid loops that preceded the
# batched kernels, with `xdoily region|heatmap --beta0=-0.2 --c=0.3,0.1
# --type 2 --resolution 40`.
GOLDEN_ARGS = ("--beta0", "-0.2", "--c", "0.3,0.1", "--type", "2", "--resolution", "40")


def test_region_csv_matches_golden():
    assert _run_cli("region", *GOLDEN_ARGS) == (DATA / "region_golden.csv").read_text()


def test_heatmap_csv_matches_golden():
    lines = _run_cli("heatmap", *GOLDEN_ARGS).splitlines()
    golden = (DATA / "heatmap_golden.csv").read_text().splitlines()
    assert len(lines) == len(golden) and lines[0] == golden[0]
    for line, ref in zip(lines[1:], golden[1:]):
        *cell, m = line.split(",")
        *ref_cell, ref_m = ref.split(",")
        assert cell == ref_cell
        assert (m == "") == (ref_m == "")
        if m:
            assert abs(float(m) - float(ref_m)) <= MEASURE_TOL


@pytest.mark.parametrize("seed", [42, 1, 2, 3])
def test_suites_pass_across_seeds(seed):
    checks = run_suites(SUITES, seed=seed, draws=500)
    assert len(checks) == 30
    failed = [(c.name, c.detail) for c in checks if not c.passed]
    assert not failed


@pytest.mark.parametrize("draws", [0, 1, 5])
def test_sign_rule_fuzz_reaches_minimum_at_small_draws(draws):
    report = sign_rule_fuzz(draws, seed=3)
    assert report.tested >= SIGN_RULE_MIN_TESTED
    assert report.draws >= draws
    assert report.passed
