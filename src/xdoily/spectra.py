"""Closed-form and numeric spectra, and PPT-based classification.

The numeric route (eig_hermitian4, backed by LAPACK) acts as the oracle for
the closed forms.  Validity means the density matrix itself is positive
semidefinite; a valid state is entangled exactly when its partial transpose
has a negative eigenvalue, and separable otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import POINTS, point_to_pauli
from .hyperplanes import detect_type, group_of  # detect_type is re-exported
from .states import (
    Group1Params,
    Group2Params,
    HyperplaneState,
    build_density_matrix,
    partial_transpose,
)

# A closed-form-exact boundary state assembled in doubles can dip this far
# below zero; anything beyond it counts as genuinely negative.
VALIDITY_TOL = 1e-10

# eig_hermitian4 rejects a matrix whose asymmetry exceeds this many times
# max(1, its largest entry): rounding grows with the entries.
HERMITIAN_TOL = 1e-12

# Verdicts; the batch classifiers of every route return indices into this.
CLASSES = ("invalid", "separable", "entangled")
INVALID, SEPARABLE, ENTANGLED = range(3)


def eig_hermitian4(h) -> np.ndarray:
    """Ascending eigenvalues of a 4x4 Hermitian matrix, or (..., 4) of a stack (..., 4, 4).

    Rejects inputs that are not Hermitian to within HERMITIAN_TOL times
    max(1, max|h|), taken per matrix.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    asym = np.abs(h - np.swapaxes(h, -1, -2).conj())
    if h.size and asym.max() > HERMITIAN_TOL:  # only then is the scale needed
        scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
        if np.any(asym.max(axis=(-2, -1)) > HERMITIAN_TOL * scale):
            raise ValueError("matrix is not Hermitian to tolerance")
    return np.linalg.eigvalsh(h)


def group1_eigenvalues_batch(params: Group1Params) -> np.ndarray:
    """Closed-form spectra (..., 4) of Group-1 states; each equals its partial-transpose spectrum."""
    tau, beta = np.asarray(params.tau, dtype=float), np.asarray(params.beta, dtype=float)
    plus = np.linalg.norm(beta + tau, axis=-1)
    minus = np.linalg.norm(beta - tau, axis=-1)
    t0 = np.asarray(params.tau0, dtype=float)
    eigs = np.stack(
        [
            0.25 * (1.0 + t0 + plus),
            0.25 * (1.0 + t0 - plus),
            0.25 * (1.0 - t0 + minus),
            0.25 * (1.0 - t0 - minus),
        ],
        axis=-1,
    )
    return np.sort(eigs, axis=-1)


def group1_eigenvalues(params: Group1Params) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectrum of a Group-1 state; equals that of its partial transpose."""
    eigs = group1_eigenvalues_batch(params.as_batch())[0]
    return eigs, eigs.copy()


def group2_eigenvalues_batch(params: Group2Params) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectra (rho, partial transpose), each (..., 4), of Group-2 families.

    The two forms differ by swapping the spectra; params.t selects which one
    applies, per state when it is an array.
    """
    m = np.asarray(params.m, dtype=float)
    b1, b2 = m[..., 0, 0], m[..., 0, 1]
    b3, b4 = m[..., 1, 0], m[..., 1, 1]
    t1, t2 = np.asarray(params.tau1, dtype=float), np.asarray(params.tau2, dtype=float)
    b0 = np.asarray(params.beta0, dtype=float)
    t = np.asarray(params.t)

    def spectrum(rad_plus, rad_minus) -> np.ndarray:
        # Half spectra 1/4 (1 + shift +- radical) at shifts b0 and -b0.
        return np.sort(
            np.stack(
                [
                    0.25 * (1.0 + b0 + rad_plus),
                    0.25 * (1.0 + b0 - rad_plus),
                    0.25 * (1.0 - b0 + rad_minus),
                    0.25 * (1.0 - b0 - rad_minus),
                ],
                axis=-1,
            ),
            axis=-1,
        )

    lam = spectrum(
        np.sqrt((b1 - b4) ** 2 + (b2 + b3) ** 2 + (t1 + t2) ** 2),
        np.sqrt((b1 + b4) ** 2 + (b2 - b3) ** 2 + (t1 - t2) ** 2),
    )
    gam = spectrum(
        np.sqrt((b1 + b4) ** 2 + (b2 - b3) ** 2 + (t1 + t2) ** 2),
        np.sqrt((b1 - b4) ** 2 + (b2 + b3) ** 2 + (t1 - t2) ** 2),
    )
    swap = (t == 2)[..., None]
    return np.where(swap, gam, lam), np.where(swap, lam, gam)


def group2_eigenvalues(params: Group2Params) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectra (rho, partial transpose) of a Group-2 family.

    The two forms differ by swapping the spectra; params.t selects which one
    applies.
    """
    lam, gam = group2_eigenvalues_batch(params.as_batch())
    return lam[0], gam[0]


@dataclass
class SpectralReport:
    eigs_rho: np.ndarray
    eigs_gamma: np.ndarray
    valid: bool
    separable: bool
    entangled: bool

    @property
    def verdict(self) -> str:
        if not self.valid:
            return "invalid"
        return "entangled" if self.entangled else "separable"

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigs_rho],
            "eigenvalues_gamma": [float(x) for x in self.eigs_gamma],
            "valid": self.valid,
            "separable": self.separable,
            "entangled": self.entangled,
        }


def _ppt_valid(lam_rho) -> np.ndarray:
    """Validity from the least eigenvalue of rho: lam_rho >= -VALIDITY_TOL."""
    return lam_rho >= -VALIDITY_TOL


def _ppt_rule(lam_rho, lam_gamma) -> np.ndarray:
    """Verdicts from the least eigenvalues of rho and of its partial transpose.

    A valid state is entangled when lam_gamma < -VALIDITY_TOL.  lam_gamma
    is not read where rho is invalid.
    """
    entangled = lam_gamma < -VALIDITY_TOL
    return np.where(_ppt_valid(lam_rho), np.where(entangled, ENTANGLED, SEPARABLE), INVALID)


def classify_batch(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PPT classification of a stack (..., 4, 4) of Hermitian matrices.

    Returns the spectra of rho and of its partial transpose, and the
    verdicts as indices into CLASSES.
    """
    eigs_rho = eig_hermitian4(rho)
    eigs_gamma = eig_hermitian4(partial_transpose(rho))
    return eigs_rho, eigs_gamma, _ppt_rule(eigs_rho[..., 0], eigs_gamma[..., 0])


def ppt_verdicts(rho) -> np.ndarray:
    """The verdicts of classify_batch(rho), solving only what they need.

    Every rho is eigensolved, but only the partial transposes of the valid
    ones: the verdict of an invalid state does not depend on its partial
    transpose.
    """
    rho = np.asarray(rho, dtype=complex)
    lam_rho = eig_hermitian4(rho)[..., 0]
    valid = _ppt_valid(lam_rho)
    lam_gamma = np.zeros_like(lam_rho)
    lam_gamma[valid] = eig_hermitian4(partial_transpose(rho[valid]))[..., 0]
    return _ppt_rule(lam_rho, lam_gamma)


def classify_matrix(rho) -> SpectralReport:
    """PPT classification of an arbitrary 4x4 Hermitian matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    eigs_rho, eigs_gamma, verdicts = classify_batch(rho[None])
    verdict = int(verdicts[0])
    return SpectralReport(
        eigs_rho[0], eigs_gamma[0], verdict != INVALID, verdict == SEPARABLE, verdict == ENTANGLED
    )


def classify(state: HyperplaneState) -> SpectralReport:
    """Assemble the state's density matrix and classify it via PPT."""
    return classify_matrix(build_density_matrix(state))


def detected_types() -> dict[str, int]:
    """Type tag for each of the nine Group-2 families, keyed by center label."""
    return {point_to_pauli(p): detect_type(p) for p in POINTS if group_of(p) == 2}
