"""Bell-violation measure, constant-measure curves and the purity link.

The measure M of a two-qubit state is the sum of the two largest eigenvalues
of beta^T beta, beta being the 3x3 correlation matrix; the state violates a
Bell inequality exactly when M > 1.  For a Group-2 family the eigenvalues of
beta^T beta are beta0^2 and the two eigenvalues m1 <= m2 of M^T M, giving the
closed form

    M = B                      when beta0^2 <  m1,
    M = beta0^2 + (B + U) / 2  when beta0^2 >= m1,

with B = tr M^T M and U = sqrt(B^2 - 4 det(M)^2).  Ties sit on the second
branch; both branches agree there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import classify_by_region_batch, grid_csv, grid_rows
from .spectra import INVALID
from .states import Group2Params

_CURVE_TOL = 1e-12

REGIMES = ("circle-ellipse-arcs", "ellipse-only", "undefined")


def bell_m_oracle_batch(beta) -> np.ndarray:
    """Sum of the two largest eigenvalues of beta^T beta for a stack (..., 3, 3) (numeric route)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-2:] != (3, 3):
        raise ValueError("expected 3x3 correlation matrices")
    evals = np.linalg.eigvalsh(np.swapaxes(beta, -1, -2) @ beta)
    return evals[..., 1] + evals[..., 2]


def bell_m_oracle(beta) -> float:
    """Sum of the two largest eigenvalues of beta^T beta (numeric route)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3, 3):
        raise ValueError("expected a 3x3 correlation matrix")
    return float(bell_m_oracle_batch(beta[None])[0])


@dataclass
class NonlocalityReport:
    """The closed-form measure and its ingredients; arrays over the batch
    when returned by bell_m_closed_batch."""

    m_value: float
    b: float        # tr M^T M
    u: float        # sqrt(B^2 - 4 det(M)^2)
    m1: float
    m2: float
    branch: str     # "B" | "beta0"

    def to_json(self) -> dict:
        return {
            "m_value": self.m_value,
            "b": self.b,
            "u": self.u,
            "m1": self.m1,
            "m2": self.m2,
            "branch": self.branch,
        }


def bell_m_closed_batch(params: Group2Params) -> NonlocalityReport:
    """Closed-form measure of a batch of generalised parameters; every field is an array."""
    m = np.asarray(params.m, dtype=float)
    b = np.sum(m * m, axis=(-2, -1))
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    u_sq = b * b - 4.0 * det * det
    u = np.sqrt(np.maximum(u_sq, 0.0))  # nonnegative up to rounding
    m1 = 0.5 * (b - u)
    m2 = 0.5 * (b + u)
    beta0 = np.asarray(params.beta0, dtype=float)
    b0_sq = beta0 * beta0
    on_b = b0_sq < m1
    return NonlocalityReport(
        m_value=np.where(on_b, b, b0_sq + m2), b=b, u=u, m1=m1, m2=m2,
        branch=np.where(on_b, "B", "beta0"),
    )


def bell_m_closed(params: Group2Params) -> NonlocalityReport:
    """Closed-form measure from generalised parameters; matches the oracle."""
    r = bell_m_closed_batch(params.as_batch())
    return NonlocalityReport(
        m_value=float(r.m_value[0]), b=float(r.b[0]), u=float(r.u[0]),
        m1=float(r.m1[0]), m2=float(r.m2[0]), branch=str(r.branch[0]),
    )


@dataclass
class ConstantMCurve:
    """Level set M = k for fixed beta0 and C = (beta4, beta3).

    The geometry is computed in the frame rotated so C sits on the positive
    x-axis; a rotated-frame point (u, v) maps to original coordinates via
    beta1 = u cos(theta) + v sin(theta), beta2 = -u sin(theta) + v cos(theta)
    with theta = frame_rotation.  Foci and intersection points are reported
    in original coordinates.
    """

    k: float
    beta0: float
    c: tuple[float, float]           # (beta4, beta3)
    frame_rotation: float
    circle_radius: float | None      # branch B = k
    ellipse_a: float | None          # branch beta0^2 + m2 = k
    ellipse_b: float | None
    foci: tuple[tuple[float, float], tuple[float, float]] | None
    intersections: tuple[tuple[float, float], ...]
    regime: str
    coincident: bool                 # concentric case with equal radii

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "frame_rotation": self.frame_rotation,
            "circle": None if self.circle_radius is None else {"r": self.circle_radius},
            "ellipse": None
            if self.ellipse_a is None
            else {"a": self.ellipse_a, "b": self.ellipse_b, "foci": [list(f) for f in self.foci]},
            "intersections": [list(pt) for pt in self.intersections],
            "regime": self.regime,
            "coincident": self.coincident,
        }


def _to_original_frame(u: float, v: float, theta: float) -> tuple[float, float]:
    return (
        u * math.cos(theta) + v * math.sin(theta),
        -u * math.sin(theta) + v * math.cos(theta),
    )


def constant_m_curve(
    k: float, beta0: float, beta3: float, beta4: float, tol: float = _CURVE_TOL
) -> ConstantMCurve:
    """Describe the set of (beta1, beta2) with measure exactly k.

    When nonempty the set is the union of circle arcs inside the ellipse
    and ellipse arcs inside the circle.  The circle branch disappears for
    k below |C|^2; for beta0^2 above |C|^2 the circle surrounds the ellipse
    and only the ellipse remains.  The measure cannot fall below
    beta0^2 + |C|^2, so smaller k leaves an empty set, reported as the
    undefined regime.
    """
    c_len = math.hypot(beta3, beta4)
    theta = math.atan2(beta3, beta4)
    c_sq = c_len * c_len

    r_b_sq = k - c_sq
    circle_radius = math.sqrt(r_b_sq) if r_b_sq > tol else None

    m2 = k - beta0 * beta0
    b_sq = m2 - c_sq

    foci = ((beta4, beta3), (-beta4, -beta3))
    if m2 <= tol or b_sq < -tol:
        # No states attain the ellipse branch here, and the circle branch is
        # dominated pointwise, so the level set is empty.
        return ConstantMCurve(
            k=k, beta0=beta0, c=(beta4, beta3), frame_rotation=theta,
            circle_radius=circle_radius, ellipse_a=None, ellipse_b=None,
            foci=None, intersections=(), regime="undefined", coincident=False,
        )
    a = math.sqrt(m2)
    b = math.sqrt(max(b_sq, 0.0))

    if c_len <= tol:
        # Concentric circles; equal radii exactly when beta0 = 0.
        coincident = circle_radius is not None and abs(r_b_sq - m2) <= tol
        return ConstantMCurve(
            k=k, beta0=beta0, c=(beta4, beta3), frame_rotation=theta,
            circle_radius=circle_radius, ellipse_a=a, ellipse_b=b,
            foci=foci, intersections=(), regime="ellipse-only", coincident=coincident,
        )

    if beta0 * beta0 <= c_sq + tol and circle_radius is not None:
        m1_at = beta0 * beta0  # value of m1 at the crossing points
        bhat1 = math.sqrt(max(m1_at * m2, 0.0)) / c_len
        bhat2 = math.sqrt(max((c_sq - m1_at) * (m2 - c_sq), 0.0)) / c_len
        pts = {}
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                x, y = _to_original_frame(s1 * bhat1, s2 * bhat2, theta)
                pts[(round(x, 12), round(y, 12))] = (x, y)
        return ConstantMCurve(
            k=k, beta0=beta0, c=(beta4, beta3), frame_rotation=theta,
            circle_radius=circle_radius, ellipse_a=a, ellipse_b=b,
            foci=foci, intersections=tuple(pts.values()),
            regime="circle-ellipse-arcs", coincident=False,
        )

    return ConstantMCurve(
        k=k, beta0=beta0, c=(beta4, beta3), frame_rotation=theta,
        circle_radius=circle_radius, ellipse_a=a, ellipse_b=b,
        foci=foci, intersections=(), regime="ellipse-only", coincident=False,
    )


def _window_samples(lo: float, hi: float, n: int) -> list[float]:
    # Interior points only; the window ends sit on the companion curve.
    if n <= 0 or hi <= lo:
        return []
    step = (hi - lo) / (n + 1)
    return [lo + (i + 1) * step for i in range(n)]


def sample_constant_m_points(curve: ConstantMCurve, n: int) -> np.ndarray:
    """n points on the level set, in original coordinates."""
    if curve.regime == "undefined":
        raise ValueError("the level set is empty")
    if n < 1:
        raise ValueError("need at least one sample")
    theta = curve.frame_rotation
    a, b = curve.ellipse_a, curve.ellipse_b
    out: list[tuple[float, float]] = []
    if curve.regime == "ellipse-only":
        for t in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False):
            out.append(_to_original_frame(a * math.cos(t), b * math.sin(t), theta))
        return np.array(out)

    r = curve.circle_radius
    c_len = math.hypot(*curve.c)
    m2 = curve.k - curve.beta0 * curve.beta0
    bhat1 = math.sqrt(max(curve.beta0 * curve.beta0 * m2, 0.0)) / c_len
    bhat2 = math.sqrt(max((c_len**2 - curve.beta0**2) * (m2 - c_len**2), 0.0)) / c_len

    # Circle arcs hug the x-axis (where the ellipse is widest); ellipse arcs
    # hug the y-axis.  A tangency collapses one arc family; its sample
    # budget moves to the other.
    theta_hat = math.atan2(bhat2, bhat1)
    t_hat = math.atan2(bhat2 / b if b > 0 else 1.0, bhat1 / a)
    circle_span = 2.0 * theta_hat
    ellipse_span = math.pi - 2.0 * t_hat
    if circle_span <= 1e-9:
        n_circle = 0
    elif ellipse_span <= 1e-9:
        n_circle = n
    else:
        n_circle = n // 2
    n_ellipse = n - n_circle
    for w, m in ((-theta_hat, n_circle // 2), (math.pi - theta_hat, n_circle - n_circle // 2)):
        for ang in _window_samples(w, w + circle_span, m):
            out.append(_to_original_frame(r * math.cos(ang), r * math.sin(ang), theta))
    for w, m in ((t_hat, n_ellipse // 2), (math.pi + t_hat, n_ellipse - n_ellipse // 2)):
        for ang in _window_samples(w, w + ellipse_span, m):
            out.append(_to_original_frame(a * math.cos(ang), b * math.sin(ang), theta))
    return np.array(out)


def evaluate_m_batch(beta0: float, beta3: float, beta4: float, beta1, beta2) -> np.ndarray:
    """Closed-form measure at the (beta1, beta2) points of two equal-shape arrays."""
    beta1, beta2 = np.broadcast_arrays(np.asarray(beta1, dtype=float), np.asarray(beta2, dtype=float))
    m = np.empty(beta1.shape + (2, 2))
    m[..., 0, 0], m[..., 0, 1] = beta1, beta2
    m[..., 1, 0], m[..., 1, 1] = beta3, beta4
    return bell_m_closed_batch(Group2Params(0.0, 0.0, beta0, m, 1)).m_value


def evaluate_m_at(beta0: float, beta3: float, beta4: float, beta1: float, beta2: float) -> float:
    """Closed-form measure at one (beta1, beta2) point."""
    return float(evaluate_m_batch(beta0, beta3, beta4, [beta1], [beta2])[0])


def m_upper_bound_batch(params: Group2Params) -> np.ndarray:
    """m_upper_bound over a batch of parameters; raises if any radicand is negative."""
    m = np.asarray(params.m, dtype=float)
    b = np.sum(m * m, axis=(-2, -1))
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    t1, t2 = np.asarray(params.tau1, dtype=float), np.asarray(params.tau2, dtype=float)
    beta0 = np.asarray(params.beta0, dtype=float)
    b0_sq = beta0 * beta0
    # Cross-term sign per type: minus for the type-1 form, plus for type 2.
    radicand = (
        (1.0 - b0_sq) ** 2
        - 2.0 * b * (t1 * t1 + t2 * t2)
        + ((-1.0) ** np.asarray(params.t)) * 8.0 * t1 * t2 * det
    )
    if np.any(radicand < -1e-12):
        raise ValueError("negative radicand: the parameters do not describe a valid state")
    radicand = np.maximum(radicand, 0.0)
    b_ceiling = 1.0 + b0_sq - (t1 * t1 + t2 * t2)
    return np.maximum(b_ceiling, b0_sq + 0.5 * (b_ceiling + np.sqrt(radicand)))


def m_upper_bound(params: Group2Params) -> float:
    """Validity-induced ceiling on the measure.

    Each branch of the measure gets its own cap: summing the squared
    validity conditions gives B <= 1 + beta0^2 - (tau1^2 + tau2^2), and
    multiplying them bounds U^2 by the radicand below, capping
    beta0^2 + (B + U) / 2.  The ceiling is the larger cap; for
    tau1 = tau2 = 0 both collapse to 1 + beta0^2.  A negative radicand
    cannot occur for a valid state; it is reported as an error because it
    means the parameters do not describe one.
    """
    return float(m_upper_bound_batch(params.as_batch())[0])


def purity_equivalence_batch(params: Group2Params, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """(maximal, pure) per state of a batch: M = 2, and beta0^2 + B = 3, to within tol."""
    if (np.abs(params.tau1) > tol).any() or (np.abs(params.tau2) > tol).any():
        raise ValueError("the purity link is stated for tau1 = tau2 = 0")
    report = bell_m_closed_batch(params)
    beta0 = np.asarray(params.beta0, dtype=float)
    maximal = np.abs(report.m_value - 2.0) <= tol
    pure = np.abs(beta0 * beta0 + report.b - 3.0) <= tol
    return maximal, pure


def purity_equivalence_check(params: Group2Params, tol: float = 1e-9) -> str:
    """Check that maximal violation (M = 2) and purity (beta0^2 + B = 3) co-occur.

    Meaningful for valid tau=0 parameters; returns "pure_and_maximal",
    "neither", or "violation_of_prop" when exactly one predicate holds.
    """
    maximal, pure = purity_equivalence_batch(params.as_batch(), tol)
    if maximal[0] and pure[0]:
        return "pure_and_maximal"
    if not maximal[0] and not pure[0]:
        return "neither"
    return "violation_of_prop"


def heatmap_m(
    beta0: float, beta3: float, beta4: float, resolution: int, t: int = 1
) -> list[tuple[float, float, float | None]]:
    """Measure over the cell centers of a resolution^2 grid on [-2, 2]^2.

    Cells outside the validity region carry None.  Rows run over beta1
    (outer) then beta2 (inner).
    """

    def row_values(params: Group2Params) -> list:
        # Python floats are made for valid cells only, as most cells are invalid.
        valid = classify_by_region_batch(params) != INVALID
        values = np.full(valid.shape, None, dtype=object)
        values[valid] = bell_m_closed_batch(params).m_value[valid]
        return values.tolist()

    return grid_rows(beta0, beta3, beta4, t, resolution, row_values)


def heatmap_csv(rows) -> str:
    return grid_csv("beta1,beta2,m", rows, lambda m: "" if m is None else repr(m))
