"""Two-qubit density matrices carried by hyperplanes of W(3,2).

A hyperplane state is a hyperplane together with one real coefficient per
Pauli label, supported only on the hyperplane's points.  Its density matrix
is rho = (I + sum_k c_k P_k) / 4, Hermitian with unit trace by construction;
positive semidefiniteness is a property decided spectrally, never assumed.

Coefficients enter and leave as sparse maps from two-letter Pauli labels to
reals.  A coefficient keyed by a label outside the chosen hyperplane is a
validation error rather than being dropped silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import POINTS, pauli_to_point, point_to_pauli
from .hyperplanes import (
    Hyperplane,
    associated_center,
    detect_type,
    group_of,
    hyperplane_by_id,
    hyperplane_by_points,
    perp_set,
    quadric_q0,
)

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI4 = {a + b: np.kron(_P1[a], _P1[b]) for a in "IXYZ" for b in "IXYZ"}
for _m in _PAULI4.values():
    _m.setflags(write=False)

# All 15 nontrivial labels in canonical point order.  A coefficient vector
# holds one real per label in this order; batches stack vectors as (..., 15).
ALL_LABELS = tuple(point_to_pauli(p) for p in POINTS)
_SLOT = {label: k for k, label in enumerate(ALL_LABELS)}

# The 15 Pauli matrices in ALL_LABELS order, read-only.
PAULI_TENSOR = np.stack([_PAULI4[label] for label in ALL_LABELS])
PAULI_TENSOR.setflags(write=False)


_BETA_SLOTS = np.array([[_SLOT[a + b] for b in "XYZ"] for a in "XYZ"])


def _group1_slots(label: str) -> list[int]:
    # (tau0, tau, beta): the center's own slot, the other factor's Bloch
    # slots, then the correlations sharing the center's axis.
    a, b = label
    if a == "I":
        return [_SLOT[label]] + [_SLOT[x + "I"] for x in "XYZ"] + [_SLOT[x + b] for x in "XYZ"]
    return [_SLOT[label]] + [_SLOT["I" + x] for x in "XYZ"] + [_SLOT[a + x] for x in "XYZ"]


def _group2_slots(label: str) -> list[int]:
    # (tau1, tau2, beta0, M row-major): M's rows and columns run over the
    # axes other than the center's, in x, y, z order.
    a, b = label
    m = [_SLOT[r + s] for r in "XYZ" if r != a for s in "XYZ" if s != b]
    return [_SLOT[a + "I"], _SLOT["I" + b], _SLOT[label]] + m


# Row p gives the vector slots of the generalised parameters of the family
# centered at point p; rows of the other group hold -1.
_GROUP1_SLOTS = np.full((16, 7), -1)
_GROUP2_SLOTS = np.full((16, 7), -1)
for _p in POINTS:
    _label = point_to_pauli(_p)
    if "I" in _label:
        _GROUP1_SLOTS[_p] = _group1_slots(_label)
    else:
        _GROUP2_SLOTS[_p] = _group2_slots(_label)


class StateDescriptorError(ValueError):
    """Malformed state descriptor or coefficient off the hyperplane."""


def pauli_matrix(label: str) -> np.ndarray:
    """The 4x4 matrix of a two-letter Pauli label (read-only view)."""
    m = _PAULI4.get(label)
    if m is None:
        raise ValueError(f"not a two-qubit Pauli label: {label!r}")
    return m


def _validate_label(label) -> str:
    if not isinstance(label, str) or label not in _PAULI4 or label == "II":
        raise StateDescriptorError(f"not a coefficient label: {label!r}")
    return label


def _slot_property(slots: np.ndarray) -> property:
    """A read-only property: the coefficients at these slots, as a read-only array."""
    def read(self) -> np.ndarray:
        out = self.values[slots]
        out.setflags(write=False)
        return out
    return property(read)


@dataclass
class StateCoeffs:
    """The 15 coefficients of a state: one float vector in ALL_LABELS order.

    tau_a (XI, YI, ZI), tau_b (IX, IY, IZ) and beta, where beta[i, j]
    multiplies sigma_i (x) sigma_j with i, j running over x, y, z, are
    read-only arrays gathered from it; write coefficients through set.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (15,):
            raise ValueError(f"expected 15 coefficients, got shape {self.values.shape}")

    @classmethod
    def zeros(cls) -> "StateCoeffs":
        return cls(np.zeros(15))

    @classmethod
    def from_labels(cls, mapping) -> "StateCoeffs":
        c = cls.zeros()
        for label, value in mapping.items():
            c.set(label, value)
        return c

    def get(self, label: str) -> float:
        return float(self.values[_SLOT[_validate_label(label)]])

    def set(self, label: str, value) -> None:
        slot = _SLOT[_validate_label(label)]
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = np.inf
        if not np.isfinite(value):
            raise StateDescriptorError(f"coefficient for {label} is not finite")
        self.values[slot] = value

    def __eq__(self, other) -> bool:
        # Value equality; the generated __eq__ would compare arrays as truth values.
        if not isinstance(other, StateCoeffs):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    def support(self) -> tuple[str, ...]:
        return tuple(ALL_LABELS[k] for k in np.flatnonzero(self.values))

    tau_a = _slot_property(np.array([_SLOT[a + "I"] for a in "XYZ"]))
    tau_b = _slot_property(np.array([_SLOT["I" + b] for b in "XYZ"]))
    beta = _slot_property(_BETA_SLOTS)

    def vector(self) -> np.ndarray:
        """The 15 coefficients as a vector in ALL_LABELS order (a copy)."""
        return self.values.copy()

    @classmethod
    def from_vector(cls, vector) -> "StateCoeffs":
        return cls(vector)


@dataclass
class HyperplaneState:
    hyperplane: Hyperplane
    coeffs: StateCoeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperplaneState):
            return NotImplemented
        return self.hyperplane == other.hyperplane and self.coeffs == other.coeffs

    def __post_init__(self) -> None:
        allowed = set(self.hyperplane.labels())
        for label in self.coeffs.support():
            if label not in allowed:
                raise StateDescriptorError(
                    f"coefficient on {label} is off the hyperplane "
                    f"({self.hyperplane.kind} {self.hyperplane.id})"
                )


def hyperplane_state(hyperplane: Hyperplane, coefficients=None) -> HyperplaneState:
    """Build a state from a sparse label-to-value map, validating support."""
    coefficients = dict(coefficients or {})
    allowed = set(hyperplane.labels())
    coeffs = StateCoeffs.zeros()
    for label, value in coefficients.items():
        label = _validate_label(label)
        if label not in allowed:
            raise StateDescriptorError(
                f"label {label} is not on the hyperplane ({hyperplane.kind} {hyperplane.id})"
            )
        coeffs.set(label, value)
    return HyperplaneState(hyperplane, coeffs)


def hyperplane_batch(hyperplane: Hyperplane, values) -> np.ndarray:
    """Coefficient vectors (..., 15) from values (..., k) on the hyperplane's
    k labels, taken in hyperplane.labels() order."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape[:-1] + (15,))
    out[..., [_SLOT[label] for label in hyperplane.labels()]] = values
    return out


def state_from_descriptor(obj) -> HyperplaneState:
    """Parse {"hyperplane": {"kind": ..., "id": ...}, "coefficients": {...}}."""
    if not isinstance(obj, dict):
        raise StateDescriptorError("state descriptor must be a JSON object")
    hp = obj.get("hyperplane")
    if not isinstance(hp, dict) or "kind" not in hp or "id" not in hp:
        raise StateDescriptorError('descriptor needs "hyperplane": {"kind", "id"}')
    coefficients = obj.get("coefficients", {})
    if not isinstance(coefficients, dict):
        raise StateDescriptorError('"coefficients" must be an object')
    extra = set(obj) - {"hyperplane", "coefficients"}
    if extra:
        raise StateDescriptorError(f"unknown descriptor fields: {sorted(extra)}")
    try:
        hyperplane = hyperplane_by_id(hp["kind"], hp["id"])
    except ValueError as exc:
        raise StateDescriptorError(str(exc)) from None
    for value in coefficients.values():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StateDescriptorError(f"coefficient values must be numbers, got {value!r}")
    return hyperplane_state(hyperplane, coefficients)


def state_descriptor(state: HyperplaneState) -> dict:
    """Inverse of state_from_descriptor (nonzero coefficients only)."""
    return {
        "hyperplane": {"kind": state.hyperplane.kind, "id": state.hyperplane.id},
        "coefficients": {label: state.coeffs.get(label) for label in state.coeffs.support()},
    }


def _term_table() -> np.ndarray:
    """Gather indices (3, 32) of density_batch into [c, -c, 0] (31 slots).

    Column f is float f of a 4x4 complex matrix laid out as (real, imag)
    pairs; it lists the signed Pauli terms of that float in ALL_LABELS
    order, padded with the zero slot.
    """
    parts = PAULI_TENSOR.reshape(15, 16).view(float)  # (15, 32)
    table = np.full((3, 32), 30)
    for f in range(32):
        terms = [k if parts[k, f] > 0 else 15 + k for k in np.flatnonzero(parts[:, f])]
        table[: len(terms), f] = terms
    return table


_TERMS = _term_table()
_TERMS.setflags(write=False)
_IDENTITY = np.eye(4, dtype=complex).reshape(16).view(float)
_IDENTITY.setflags(write=False)


def density_batch(vectors) -> np.ndarray:
    """Density matrices (..., 4, 4) of coefficient vectors (..., 15).

    Each real and imaginary part is the identity plus its signed Pauli
    terms in ALL_LABELS order, then divided by 4: the same sums in the same
    order as adding c_k P_k term by term, so the result is bit-identical to
    that loop, signs of zeros included.
    """
    c = np.asarray(vectors, dtype=float)
    lead = c.shape[:-1]
    terms = np.concatenate([c, -c, np.zeros(lead + (1,))], axis=-1)[..., _TERMS]
    rho = np.empty(lead + (16,), dtype=complex)
    acc = rho.view(float)
    np.add(_IDENTITY, terms[..., 0, :], out=acc)
    acc += terms[..., 1, :]
    acc += terms[..., 2, :]
    # A complex division, as in the loop: an infinite part turns the other part of its entry into NaN.
    return rho.reshape(lead + (4, 4)) / 4.0


def beta_batch(vectors) -> np.ndarray:
    """Correlation matrices (..., 3, 3) of coefficient vectors (..., 15)."""
    return np.asarray(vectors, dtype=float)[..., _BETA_SLOTS]


def density_from_coeffs(coeffs: StateCoeffs) -> np.ndarray:
    return density_batch(coeffs.values)


def build_density_matrix(state: HyperplaneState) -> np.ndarray:
    """rho = (I + sum_k c_k P_k) / 4."""
    return density_from_coeffs(state.coeffs)


def decompose_density_matrix(rho) -> StateCoeffs:
    """Recover Pauli coefficients through c_k = Re tr(rho P_k), the inverse of density_batch."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    return StateCoeffs(np.einsum("ij,kji->k", rho, PAULI_TENSOR).real)


def partial_transpose(rho) -> np.ndarray:
    """Transpose over the second tensor factor: entry (2a+b, 2c+d) -> (2a+d, 2c+b).

    Takes one 4x4 matrix or a stack (..., 4, 4).
    """
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    r = rho.reshape(lead + (2, 2, 2, 2))
    return np.swapaxes(r, -3, -1).reshape(lead + (4, 4))


def reduced_states(rho) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces (rho_A, rho_B) over the second and first factor."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r), np.einsum("abad->bd", r)


@dataclass
class Group1Params:
    """Generalised parameters of a Group-1 perp-set state.

    tau0 is the coefficient of the center's own observable, tau the Bloch
    coordinates of the other subsystem, and beta[i] the correlation
    coefficient sharing its single-qubit axis with tau[i].  The batch
    kernels accept fields with a common leading batch shape: tau0 (...),
    tau and beta (..., 3).
    """

    tau0: float
    tau: np.ndarray
    beta: np.ndarray

    def as_batch(self) -> "Group1Params":
        """These parameters as a batch of one state."""
        return Group1Params(
            np.asarray([self.tau0], dtype=float),
            np.asarray(self.tau, dtype=float)[None],
            np.asarray(self.beta, dtype=float)[None],
        )


@dataclass
class Group2Params:
    """Generalised parameters of a Group-2 family.

    beta0 is the coefficient of the family center's observable; m is the
    complementary 2x2 correlation block, rows following the remaining
    first-factor axes and columns the remaining second-factor axes, both in
    x, y, z order.  t tags which of the two closed eigenvalue forms the
    family follows.  The batch kernels accept fields with a common leading
    batch shape: tau1, tau2, beta0 and t (...), m (..., 2, 2).
    """

    tau1: float
    tau2: float
    beta0: float
    m: np.ndarray
    t: int

    def __post_init__(self) -> None:
        t = np.asarray(self.t)
        bad = t[(t != 1) & (t != 2)] if t.dtype.kind in "iuf" else t.reshape(-1)
        if bad.size:
            raise ValueError(f"type tag must be 1 or 2, got {bad.tolist()[0]!r}")

    def as_batch(self) -> "Group2Params":
        """These parameters as a batch of one state."""
        return Group2Params(
            np.asarray([self.tau1], dtype=float),
            np.asarray([self.tau2], dtype=float),
            np.asarray([self.beta0], dtype=float),
            np.asarray(self.m, dtype=float)[None],
            np.asarray([self.t]),
        )


def _slots(table: np.ndarray, center, group: int) -> np.ndarray:
    slots = table[np.asarray(center)]
    if np.any(slots < 0):
        raise ValueError(f"center is not a Group-{group} point")
    return slots


def _scatter(slots: np.ndarray, *components) -> np.ndarray:
    shape = np.broadcast_shapes(slots.shape[:-1], *(np.shape(c) for c in components))
    out = np.zeros(shape + (15,))
    if slots.ndim == 1:  # one family for the whole batch
        for slot, value in zip(slots, components):
            out[..., slot] = value
    else:
        values = np.stack(np.broadcast_arrays(*components), axis=-1)
        np.put_along_axis(out, np.broadcast_to(slots, values.shape), values, axis=-1)
    return out


def _gather(slots: np.ndarray, vectors) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=float)
    return np.take_along_axis(vectors, np.broadcast_to(slots, vectors.shape[:-1] + (7,)), axis=-1)


def group1_batch(center, tau0, tau, beta) -> np.ndarray:
    """Coefficient vectors (..., 15) of Group-1 perp-set states.

    center is one Group-1 point or one per state; the parameters broadcast
    against each other with tau and beta of shape (..., 3).
    """
    tau, beta = np.asarray(tau, dtype=float), np.asarray(beta, dtype=float)
    return _scatter(
        _slots(_GROUP1_SLOTS, center, 1),
        tau0, tau[..., 0], tau[..., 1], tau[..., 2], beta[..., 0], beta[..., 1], beta[..., 2],
    )


def group2_batch(center, tau1, tau2, beta0, m) -> np.ndarray:
    """Coefficient vectors (..., 15) of Group-2 perp-set states.

    center is one Group-2 point or one per state; the parameters broadcast
    against each other with m of shape (..., 2, 2).
    """
    m = np.asarray(m, dtype=float)
    return _scatter(
        _slots(_GROUP2_SLOTS, center, 2),
        tau1, tau2, beta0, m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1],
    )


def group1_params_batch(center, vectors) -> Group1Params:
    """Group-1 parameters read from coefficient vectors (..., 15)."""
    v = _gather(_slots(_GROUP1_SLOTS, center, 1), vectors)
    return Group1Params(v[..., 0], v[..., 1:4], v[..., 4:7])


def group2_params_batch(center, vectors, t) -> Group2Params:
    """Group-2 parameters read from coefficient vectors (..., 15).

    For grids, center is the associated Group-2 center.
    """
    v = _gather(_slots(_GROUP2_SLOTS, center, 2), vectors)
    return Group2Params(v[..., 0], v[..., 1], v[..., 2], v[..., 3:].reshape(v.shape[:-1] + (2, 2)), t)


def extract_group1_params(state: HyperplaneState) -> Group1Params:
    h = state.hyperplane
    if h.kind != "perp" or group_of(h.center) != 1:
        raise ValueError("extract_group1_params needs a Group-1 perp-set state")
    p = group1_params_batch(h.center, state.coeffs.values)
    return Group1Params(float(p.tau0), p.tau, p.beta)


def extract_group2_params(state: HyperplaneState) -> Group2Params:
    """Generalised parameters of a Group-2 perp-set or non-Q0 grid state.

    For grids the two center-aligned Bloch coordinates are off-support and
    therefore zero; any other tau coefficients a grid state may carry are
    outside this parameterisation.  The family type is resolved by the
    Y-parity rule of detect_type.
    """
    h = state.hyperplane
    if h.kind == "perp":
        if group_of(h.center) != 2:
            raise ValueError("Group-1 perp-sets have no beta0/M split")
        center = h.center
    elif h.kind == "grid":
        center = associated_center(h)  # rejects Q0
    else:
        raise ValueError("ovoid states have no beta0/M split")
    p = group2_params_batch(center, state.coeffs.values, detect_type(center))
    return Group2Params(float(p.tau1), float(p.tau2), float(p.beta0), p.m, p.t)


def group2_state(center: int, tau1, tau2, beta0, m) -> HyperplaneState:
    """Perp-set state of a Group-2 center built from generalised parameters."""
    if group_of(center) != 2:
        raise ValueError("group2_state needs a Group-2 center")
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("m must be a 2x2 block")
    vector = group2_batch(center, float(tau1), float(tau2), float(beta0), m)
    return HyperplaneState(perp_set(center), StateCoeffs(vector))


def group1_state(center: int, tau0, tau, beta) -> HyperplaneState:
    """Perp-set state of a Group-1 center built from generalised parameters."""
    if group_of(center) != 1:
        raise ValueError("group1_state needs a Group-1 center")
    tau = np.asarray(tau, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if tau.shape != (3,) or beta.shape != (3,):
        raise ValueError("tau and beta must be 3-vectors")
    vector = group1_batch(center, float(tau0), tau, beta)
    return HyperplaneState(perp_set(center), StateCoeffs(vector))


_Q5_LABELS = ("XI", "ZI", "IX", "IZ", "XX", "YY", "ZZ", "ZX", "XZ")
_O1_LABELS = ("IX", "IZ", "XY", "ZY", "YY")

NAMED_STATES = ("epr_phi_plus", "werner", "q0_state", "q5_state", "ovoid_o1_state")


def make_named_state(name: str, p: float | None = None, coefficients=None) -> HyperplaneState:
    """Convenience constructors for the featured families.

    epr_phi_plus and werner (which needs the mixing parameter p) live on the
    ZZ perp-set; q0_state, q5_state and ovoid_o1_state take an optional
    coefficient map on the corresponding grid or ovoid support.
    """
    if name == "epr_phi_plus":
        return hyperplane_state(
            perp_set(pauli_to_point("ZZ")), {"XX": 1.0, "YY": -1.0, "ZZ": 1.0}
        )
    if name == "werner":
        if p is None:
            raise ValueError("werner needs the mixing parameter p")
        p = float(p)
        return hyperplane_state(
            perp_set(pauli_to_point("ZZ")), {"XX": p, "YY": -p, "ZZ": p}
        )
    if name == "q0_state":
        return hyperplane_state(quadric_q0(), coefficients)
    if name == "q5_state":
        return hyperplane_state(hyperplane_by_points(_Q5_LABELS), coefficients)
    if name == "ovoid_o1_state":
        return hyperplane_state(hyperplane_by_points(_O1_LABELS), coefficients)
    raise ValueError(f"unknown named state {name!r}; choose from {NAMED_STATES}")
