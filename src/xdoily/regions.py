"""Planar disc geometry of validity, separability and entanglement.

For a Group-2 family with maximally mixed subsystems (both tau coefficients
zero) the classification reduces to disc memberships in the plane: with
C = (beta4, beta3), E = (beta1, -beta2), r = 1 - |beta0| and R = 1 + |beta0|,
the state is valid when s*E lies in (C,r) n (-C,R), separable when E lies in
(C,r) n (-C,r), and entangled otherwise, where s = (-1)^t sgn(beta0) and
sgn(0) is taken as +1.

The dual route plays the same game with the mirror pair: discs centered at
D = (beta1, beta2) and membership of F = (beta4, -beta3).  (Centering the
dual discs at E instead breaks the equivalence with the spectral route; the
D-centered form is the one that agrees with PPT on every draw.)

Boundary membership uses closed discs with MEMBERSHIP_TOL, the spectral
validity tolerance carried over to distances, so both routes classify
boundary states alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import POINTS
from .hyperplanes import detect_type, group_of
from .spectra import CLASSES, ENTANGLED, INVALID, SEPARABLE, VALIDITY_TOL, ppt_verdicts
from .states import Group2Params, density_batch, extract_group2_params, group2_batch

# An eigenvalue (1 +- beta0 +- distance) / 4 moves by a quarter of the
# distance, so VALIDITY_TOL on eigenvalues is this tolerance on distances.
MEMBERSHIP_TOL = 4 * VALIDITY_TOL

# States per kernel call in the sampling loops.  It bounds their working
# memory, about 0.4 MiB at 256; larger chunks were no faster.
DRAW_CHUNK = 256

# Cells per kernel call in grid_rows, rounded down to whole grid rows (at
# least one).  At res 200 one region plus one heatmap grid took 27 / 23 /
# 22 / 27 ms with blocks of 1024 / 4096 / 8192 / 40000 cells; a block's
# transient arrays are about 0.2 MiB at 4096 and grow with it.
GRID_BLOCK = 4096


@dataclass
class RegionGeometry:
    """Planar data of tau=0 Group-2 families.

    Built from batched parameters, every field carries the batch shape in
    front: the points become (..., 2) and the scalars (...).
    """

    c: np.ndarray  # (beta4, beta3)
    d: np.ndarray  # (beta1, beta2); center of the dual route's discs
    e: np.ndarray  # (beta1, -beta2)
    f: np.ndarray  # (beta4, -beta3)
    r: float       # 1 - |beta0|
    big_r: float   # 1 + |beta0|
    sign_factor: float  # (-1)^t * sgn(beta0), sgn(0) := +1

    @property
    def l_plus(self) -> float:
        """Distance from C to -E."""
        return _norm(self.c + self.e)

    @property
    def l_minus(self) -> float:
        """Distance from C to E."""
        return _norm(self.c - self.e)


def _norm(v: np.ndarray):
    return np.hypot(v[..., 0], v[..., 1])


def _disc_data(params: Group2Params):
    """(b1, b2, b3, b4, r, R, s) of one parameter set or of a batch."""
    m = np.asarray(params.m, dtype=float)
    beta0 = np.asarray(params.beta0, dtype=float)
    sign = np.where(beta0 >= 0.0, 1.0, -1.0) * (-1.0) ** np.asarray(params.t)
    return (
        m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1],
        1.0 - np.abs(beta0), 1.0 + np.abs(beta0), sign,
    )


def region_geometry(params: Group2Params) -> RegionGeometry:
    """Disc data of one parameter set or of a batch."""
    b1, b2, b3, b4, r, big_r, sign = _disc_data(params)
    return RegionGeometry(
        c=np.stack([b4, b3], axis=-1),
        d=np.stack([b1, b2], axis=-1),
        e=np.stack([b1, -b2], axis=-1),
        f=np.stack([b4, -b3], axis=-1),
        r=r,
        big_r=big_r,
        sign_factor=sign[()],
    )


def l_plus(params: Group2Params) -> float:
    """sqrt((b1 + b4)^2 + (b2 - b3)^2)."""
    return float(region_geometry(params).l_plus)


def l_minus(params: Group2Params) -> float:
    """sqrt((b1 - b4)^2 + (b2 + b3)^2)."""
    return float(region_geometry(params).l_minus)


def tau_is_zero(*taus) -> bool:
    """The one rule for tau = 0, on every route that needs it: every |tau| is within VALIDITY_TOL.

    A NaN tau is not zero.
    """
    return all(np.all(np.abs(tau) <= VALIDITY_TOL) for tau in taus)


def _require_tau_zero(params: Group2Params) -> None:
    if not tau_is_zero(params.tau1, params.tau2):
        raise ValueError("region classification requires tau1 = tau2 = 0")


def _disc_verdicts(px, py, cx, cy, r, big_r, sign) -> np.ndarray:
    # With P = (px, py) and X = (cx, cy): valid when sP lies in (X, r) n (-X, R),
    # separable when P lies in (X, r) n (-X, r), entangled otherwise.
    sx, sy = sign * px, sign * py
    r_tol = r + MEMBERSHIP_TOL
    valid = (np.hypot(sx - cx, sy - cy) <= r_tol) & (np.hypot(sx + cx, sy + cy) <= big_r + MEMBERSHIP_TOL)
    separable = (np.hypot(px - cx, py - cy) <= r_tol) & (np.hypot(px + cx, py + cy) <= r_tol)
    return np.where(valid, np.where(separable, SEPARABLE, ENTANGLED), INVALID)


def classify_by_region_batch(params: Group2Params) -> np.ndarray:
    """Disc-membership verdicts (indices into CLASSES) of a batch of tau=0 parameters.

    The point E = (b1, -b2) against discs centered at C = (b4, b3).
    """
    _require_tau_zero(params)
    b1, b2, b3, b4, r, big_r, sign = _disc_data(params)
    return _disc_verdicts(b1, -b2, b4, b3, r, big_r, sign)


def dual_classify_by_region_batch(params: Group2Params) -> np.ndarray:
    """Mirror-route verdicts, batched: the point F = (b4, -b3) against discs centered at D = (b1, b2)."""
    _require_tau_zero(params)
    b1, b2, b3, b4, r, big_r, sign = _disc_data(params)
    return _disc_verdicts(b4, -b3, b1, b2, r, big_r, sign)


def classify_by_region(params: Group2Params) -> str:
    """Disc-membership classification; agrees with the PPT route."""
    return CLASSES[int(classify_by_region_batch(params.as_batch())[0])]


def dual_classify_by_region(params: Group2Params) -> str:
    """Mirror-route classification through D-centered discs and the point F."""
    return CLASSES[int(dual_classify_by_region_batch(params.as_batch())[0])]


def region_emptiness(beta0: float, beta3: float, beta4: float) -> tuple[bool, bool]:
    """(validity region nonempty, separability region nonempty)."""
    c_sq = beta3 * beta3 + beta4 * beta4
    r = 1.0 - abs(beta0)
    return (c_sq <= 1.0, c_sq <= r * r)


def grid_rows(beta0: float, beta3: float, beta4: float, t: int, resolution: int, row_values) -> list:
    """Rows (beta1, beta2, value) over the cell centers of a resolution^2 grid on [-2, 2]^2.

    Rows run over beta1 (outer) then beta2 (inner).  The kernel sees blocks
    of whole grid rows, about GRID_BLOCK cells each: row_values maps the
    tau=0 parameters of one block, a flat batch over its cells in row
    order, to one value per cell.  Only one block's arrays are alive at a
    time.  Every row holds the same `resolution` center floats, so
    grid_csv formats each of them once.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    step = 4.0 / resolution
    centers = [-2.0 + (i + 0.5) * step for i in range(resolution)]
    block_rows = min(resolution, max(1, GRID_BLOCK // resolution))
    m = np.empty((block_rows * resolution, 2, 2))
    m[:, 0, 1] = np.tile(centers, block_rows)
    m[:, 1, 0] = beta3
    m[:, 1, 1] = beta4
    rows = []
    for start in range(0, resolution, block_rows):
        b1s = centers[start : start + block_rows]
        block = m[: len(b1s) * resolution]
        block[:, 0, 0] = np.repeat(b1s, resolution)
        values = row_values(Group2Params(0.0, 0.0, beta0, block, t))
        rows.extend(zip([b1 for b1 in b1s for _ in centers], centers * len(b1s), values))
    return rows


def sample_region(
    beta0: float, beta3: float, beta4: float, t: int, resolution: int
) -> list[tuple[float, float, str]]:
    """Classify the cell centers of a resolution^2 grid over [-2, 2]^2.

    Rows run over beta1 (outer) then beta2 (inner); each row carries the cell
    center coordinates and its class.
    """
    return grid_rows(
        beta0, beta3, beta4, t, resolution,
        lambda params: [CLASSES[k] for k in classify_by_region_batch(params).tolist()],
    )


def grid_csv(header: str, rows, value_text) -> str:
    """CSV text of grid rows (beta1, beta2, value): coordinates by repr, values by value_text.

    A grid reuses a few coordinate floats for all of its cells, so each
    coordinate object is formatted once.  The memo is keyed by id, not by
    value: 0.0 and -0.0 are equal keys of a dict but print differently.
    Each memoized float is held until the call returns, so its id cannot be
    reused, even when rows is a generator.
    """
    memo = {}
    held = []
    text_of = memo.get
    lines = [header]
    for b1, b2, value in rows:
        s1 = text_of(id(b1))
        if s1 is None:
            s1 = memo[id(b1)] = repr(b1)
            held.append(b1)
        s2 = text_of(id(b2))
        if s2 is None:
            s2 = memo[id(b2)] = repr(b2)
            held.append(b2)
        lines.append(f"{s1},{s2},{value_text(value)}")
    return "\n".join(lines) + "\n"


def region_csv(rows) -> str:
    return grid_csv("beta1,beta2,class", rows, format)


def region_params_for_state(state) -> Group2Params | None:
    """Group-2 parameters of a state when the disc route applies, else None.

    The route needs a Group-2 perp-set or a grid other than Q0, with every
    Bloch (tau) coefficient zero by tau_is_zero, the rule the disc routes
    themselves apply.
    """
    h = state.hyperplane
    if h.kind == "ovoid":
        return None
    if h.kind == "grid" and h.index == 0:
        return None
    if h.kind == "perp" and group_of(h.center) != 2:
        return None
    if not tau_is_zero(state.coeffs.tau_a, state.coeffs.tau_b):
        return None
    return extract_group2_params(state)


@dataclass
class SignRuleReport:
    """Fuzz outcome for the sign rule: beta0 < 0 iff L+ > L- on valid entangled states."""

    draws: int
    tested: int
    counterexamples: list

    @property
    def passed(self) -> bool:
        return not self.counterexamples


# A fuzz run keeps drawing past its requested draws until this many draws
# qualified, within SIGN_RULE_ATTEMPTS_PER_TEST attempts per qualifying draw.
SIGN_RULE_MIN_TESTED = 20
SIGN_RULE_ATTEMPTS_PER_TEST = 200


def sign_rule_fuzz(draws: int, seed: int = 42) -> SignRuleReport:
    """Check beta0 < 0 iff L+ > L- over random valid entangled tau=0 states.

    The rule is stated for the first closed form, so draws are embedded in a
    family of type 1; validity and entanglement are decided by the numeric
    PPT route, keeping the check independent of the disc geometry.  At
    least `draws` states are drawn, more when fewer than
    SIGN_RULE_MIN_TESTED of them qualified; the report counts them all.
    """
    if draws < 0:
        raise ValueError("draws must be nonnegative")
    center = next(p for p in POINTS if group_of(p) == 2 and detect_type(p) == 1)
    rng = np.random.default_rng(seed)
    attempt_cap = max(draws, SIGN_RULE_ATTEMPTS_PER_TEST * SIGN_RULE_MIN_TESTED)
    attempts = 0
    tested = 0
    counterexamples = []
    while attempts < draws or (tested < SIGN_RULE_MIN_TESTED and attempts < attempt_cap):
        n = min(DRAW_CHUNK, (draws if attempts < draws else attempt_cap) - attempts)
        attempts += n
        x = rng.uniform(-1.0, 1.0, (n, 5))  # per draw: beta0, then M row-major
        beta0, m = x[:, 0], x[:, 1:].reshape(n, 2, 2)
        verdicts = ppt_verdicts(density_batch(group2_batch(center, 0.0, 0.0, beta0, m)))
        keep = (verdicts == ENTANGLED) & (np.abs(beta0) > 1e-12)
        tested += int(np.count_nonzero(keep))
        params = Group2Params(0.0, 0.0, beta0[keep], m[keep], 1)
        g = region_geometry(params)
        lp, lm = g.l_plus, g.l_minus
        for k in np.flatnonzero((params.beta0 < 0.0) != (lp > lm))[: 10 - len(counterexamples)]:
            counterexamples.append(
                {"beta0": float(params.beta0[k]), "m": params.m[k].tolist(),
                 "l_plus": float(lp[k]), "l_minus": float(lm[k])}
            )
    return SignRuleReport(draws=attempts, tested=tested, counterexamples=counterexamples)
