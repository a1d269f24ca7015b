"""Density-matrix assembly, coefficient round trips, parameter extraction."""

import dataclasses

import numpy as np
import pytest

import xdoily as xd
from xdoily.states import (
    ALL_LABELS,
    StateCoeffs,
    StateDescriptorError,
    density_from_coeffs,
    group1_state,
    group2_state,
    state_descriptor,
)

RNG = np.random.default_rng(91)


def _random_state(hyperplane, rng=RNG):
    labels = hyperplane.labels()
    return xd.hyperplane_state(
        hyperplane, dict(zip(labels, rng.uniform(-1, 1, len(labels))))
    )


def test_zero_coefficients_give_maximally_mixed():
    state = xd.hyperplane_state(xd.perp_set(xd.pauli_to_point("ZZ")), {})
    np.testing.assert_allclose(xd.build_density_matrix(state), np.eye(4) / 4)


def test_x_shape_zero_pattern():
    # any coefficients on the ZZ perp-set leave the eight off-X entries zero
    state = _random_state(xd.perp_set(xd.pauli_to_point("ZZ")))
    rho = xd.build_density_matrix(state)
    x_positions = {(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3)}
    for i in range(4):
        for j in range(4):
            if (i, j) not in x_positions:
                assert rho[i, j] == 0


def test_epr_is_the_phi_plus_projector():
    rho = xd.build_density_matrix(xd.make_named_state("epr_phi_plus"))
    vec = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), atol=1e-15)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-14


def test_hermitian_unit_trace_for_arbitrary_coefficients():
    for h in (xd.perp_set(5), xd.quadric_q0(), xd.ovoids()[2]):
        for _ in range(20):
            rho = xd.build_density_matrix(_random_state(h))
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
            assert abs(np.trace(rho).real - 1.0) < 1e-14


def test_coefficient_round_trip():
    coeffs = StateCoeffs.from_labels(
        {lab: v for lab, v in zip(ALL_LABELS, RNG.uniform(-2, 2, 15))}
    )
    rho = density_from_coeffs(coeffs)
    recovered = xd.decompose_density_matrix(rho)
    for lab in ALL_LABELS:
        assert abs(recovered.get(lab) - coeffs.get(lab)) < 1e-12


def test_coefficients_are_one_vector_in_label_order():
    values = RNG.uniform(-2, 2, 15)
    coeffs = StateCoeffs(values)
    assert [f.name for f in dataclasses.fields(StateCoeffs)] == ["values"]
    assert coeffs.values.shape == (15,) and coeffs.values is not values
    for k, lab in enumerate(ALL_LABELS):
        assert coeffs.get(lab) == values[k]
    np.testing.assert_array_equal(coeffs.tau_a, [coeffs.get(a + "I") for a in "XYZ"])
    np.testing.assert_array_equal(coeffs.tau_b, [coeffs.get("I" + b) for b in "XYZ"])
    np.testing.assert_array_equal(coeffs.beta, [[coeffs.get(a + b) for b in "XYZ"] for a in "XYZ"])
    np.testing.assert_array_equal(StateCoeffs.from_vector(coeffs.vector()).values, values)
    coeffs.set("YZ", 0.0)
    assert "YZ" not in coeffs.support() and len(coeffs.support()) == 14
    with pytest.raises(ValueError):
        StateCoeffs(np.zeros(9))


def test_coefficients_and_states_compare_by_value():
    zz = xd.perp_set(xd.pauli_to_point("ZZ"))
    assert StateCoeffs.zeros() == StateCoeffs.zeros()
    a = StateCoeffs.from_labels({"XX": 0.5, "ZZ": -0.25})
    assert a == StateCoeffs(a.vector()) and not a != StateCoeffs(a.vector())
    assert a != StateCoeffs.from_labels({"XX": 0.5}) and a != StateCoeffs.zeros()
    assert a != "XX" and a != 0.5 and a != None  # noqa: E711
    state = xd.hyperplane_state(zz, {"XX": 0.5, "ZZ": -0.25})
    assert state == xd.hyperplane_state(zz, {"ZZ": -0.25, "XX": 0.5})
    assert state != xd.hyperplane_state(zz, {"XX": 0.5})
    # Same coefficients on another hyperplane that holds both labels.
    q0 = xd.quadric_q0()
    assert state != xd.HyperplaneState(q0, a)
    assert state != a and state != zz


def test_gathered_coefficients_are_read_only():
    coeffs = StateCoeffs.from_labels({"XX": 0.5, "XI": 0.1, "IZ": 0.2})
    for name in ("tau_a", "tau_b", "beta"):
        with pytest.raises(AttributeError):
            setattr(coeffs, name, np.zeros_like(getattr(coeffs, name)))
        with pytest.raises(ValueError):
            getattr(coeffs, name)[0] = 1.0
    assert coeffs.get("XX") == 0.5 and coeffs.get("XI") == 0.1 and coeffs.get("IZ") == 0.2


def test_partial_transpose_index_map():
    rho = RNG.uniform(size=(4, 4)) + 1j * RNG.uniform(size=(4, 4))
    pt = xd.partial_transpose(rho)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    assert pt[2 * a + d, 2 * c + b] == rho[2 * a + b, 2 * c + d]


def test_partial_transpose_fixed_points_and_involution():
    np.testing.assert_allclose(xd.partial_transpose(np.eye(4) / 4), np.eye(4) / 4)
    rho = xd.build_density_matrix(_random_state(xd.quadric_q0()))
    np.testing.assert_allclose(xd.partial_transpose(xd.partial_transpose(rho)), rho)
    assert abs(np.trace(xd.partial_transpose(rho)) - 1.0) < 1e-14


def test_epr_partial_transpose_spectrum():
    rho = xd.build_density_matrix(xd.make_named_state("epr_phi_plus"))
    eigs = np.linalg.eigvalsh(xd.partial_transpose(rho))
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_reduced_states():
    rho = np.eye(4, dtype=complex) / 4
    a, b = xd.reduced_states(rho)
    np.testing.assert_allclose(a, np.eye(2) / 2)
    np.testing.assert_allclose(b, np.eye(2) / 2)

    # tau^A_z = 1 polarizes the first qubit
    state = xd.hyperplane_state(xd.perp_set(xd.pauli_to_point("ZZ")), {"ZI": 1.0})
    a, b = xd.reduced_states(xd.build_density_matrix(state))
    np.testing.assert_allclose(a, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(b, np.eye(2) / 2, atol=1e-15)

    rho = xd.build_density_matrix(_random_state(xd.quadric_q0()))
    a, b = xd.reduced_states(rho)
    assert abs(np.trace(a) - 1.0) < 1e-14 and abs(np.trace(b) - 1.0) < 1e-14
    # Q0 states have maximally mixed subsystems
    np.testing.assert_allclose(a, np.eye(2) / 2, atol=1e-14)
    np.testing.assert_allclose(b, np.eye(2) / 2, atol=1e-14)


def test_support_validation():
    zz = xd.perp_set(xd.pauli_to_point("ZZ"))
    with pytest.raises(StateDescriptorError):
        xd.hyperplane_state(zz, {"XZ": 0.5})  # XZ not on the ZZ perp-set
    with pytest.raises(StateDescriptorError):
        xd.hyperplane_state(zz, {"XZ": 0.0})  # off-support keys error even at zero
    with pytest.raises(StateDescriptorError):
        xd.hyperplane_state(zz, {"QQ": 0.5})
    with pytest.raises(StateDescriptorError):
        xd.hyperplane_state(zz, {"II": 0.5})
    with pytest.raises(StateDescriptorError):
        xd.hyperplane_state(zz, {"XX": float("nan")})


def test_descriptor_round_trip():
    state = xd.make_named_state("werner", p=0.7)
    desc = state_descriptor(state)
    assert desc["hyperplane"] == {"kind": "perp", "id": "ZZ"}
    again = xd.state_from_descriptor(desc)
    np.testing.assert_allclose(
        xd.build_density_matrix(again), xd.build_density_matrix(state)
    )


def test_descriptor_schema_errors():
    with pytest.raises(StateDescriptorError):
        xd.state_from_descriptor([])
    with pytest.raises(StateDescriptorError):
        xd.state_from_descriptor({"coefficients": {}})
    with pytest.raises(StateDescriptorError):
        xd.state_from_descriptor({"hyperplane": {"kind": "grid", "id": 99}, "coefficients": {}})
    with pytest.raises(StateDescriptorError):
        xd.state_from_descriptor({"hyperplane": {"kind": "perp", "id": "ZZ"}, "coefficients": {"XX": "big"}})
    with pytest.raises(StateDescriptorError):
        xd.state_from_descriptor({"hyperplane": {"kind": "perp", "id": "ZZ"}, "oops": 1})


def test_named_state_supports():
    q5 = xd.make_named_state("q5_state")
    assert set(q5.hyperplane.labels()) == {"XI", "ZI", "IX", "IZ", "XX", "YY", "ZZ", "ZX", "XZ"}
    assert q5.hyperplane.kind == "grid"
    o1 = xd.make_named_state("ovoid_o1_state")
    assert set(o1.hyperplane.labels()) == {"IX", "IZ", "XY", "ZY", "YY"}
    assert o1.hyperplane.kind == "ovoid"
    q0 = xd.make_named_state("q0_state")
    assert q0.hyperplane.mask == xd.quadric_q0().mask
    np.testing.assert_allclose(
        xd.build_density_matrix(xd.make_named_state("werner", p=0.0)), np.eye(4) / 4
    )
    with pytest.raises(ValueError):
        xd.make_named_state("werner")
    with pytest.raises(ValueError):
        xd.make_named_state("bell_singlet")


def test_group2_extraction_zz():
    state = xd.hyperplane_state(
        xd.perp_set(xd.pauli_to_point("ZZ")),
        {"ZI": 0.1, "IZ": 0.2, "ZZ": 0.3, "XX": 0.4, "XY": 0.5, "YX": 0.6, "YY": 0.7},
    )
    params = xd.extract_group2_params(state)
    assert params.beta0 == 0.3
    assert (params.tau1, params.tau2) == (0.1, 0.2)
    np.testing.assert_allclose(params.m, [[0.4, 0.5], [0.6, 0.7]])


def test_group2_extraction_xx_block():
    state = xd.hyperplane_state(
        xd.perp_set(xd.pauli_to_point("XX")),
        {"XX": 0.3, "YY": 0.4, "YZ": 0.5, "ZY": 0.6, "ZZ": 0.7},
    )
    params = xd.extract_group2_params(state)
    assert params.beta0 == 0.3
    np.testing.assert_allclose(params.m, [[0.4, 0.5], [0.6, 0.7]])  # {y,z} x {y,z}


def test_group2_extraction_zero_state():
    params = xd.extract_group2_params(
        xd.hyperplane_state(xd.perp_set(xd.pauli_to_point("ZZ")), {})
    )
    assert params.beta0 == 0.0 and params.tau1 == 0.0 and params.tau2 == 0.0
    np.testing.assert_allclose(params.m, np.zeros((2, 2)))


def test_group2_extraction_rejects_wrong_kinds():
    with pytest.raises(ValueError):
        xd.extract_group2_params(xd.hyperplane_state(xd.perp_set(xd.pauli_to_point("IX")), {}))
    with pytest.raises(ValueError):
        xd.extract_group2_params(xd.make_named_state("q0_state"))
    with pytest.raises(ValueError):
        xd.extract_group2_params(xd.make_named_state("ovoid_o1_state"))


def test_group2_extraction_from_grid():
    q5 = xd.make_named_state("q5_state", coefficients={"XX": 0.2, "YY": 0.3, "ZZ": 0.4, "ZX": 0.5, "XZ": 0.6})
    params = xd.extract_group2_params(q5)
    # the grid shares the YY family's correlation support
    assert params.beta0 == 0.3
    assert params.tau1 == 0.0 and params.tau2 == 0.0
    np.testing.assert_allclose(params.m, [[0.2, 0.6], [0.5, 0.4]])  # {x,z} x {x,z}


def test_group1_extraction_pairing():
    # center IZ: beta column z pairs with the first-factor Bloch vector
    state = xd.hyperplane_state(
        xd.perp_set(xd.pauli_to_point("IZ")),
        {"IZ": 0.1, "XI": 0.2, "YI": 0.3, "ZI": 0.4, "XZ": 0.5, "YZ": 0.6, "ZZ": 0.7},
    )
    params = xd.extract_group1_params(state)
    assert params.tau0 == 0.1
    np.testing.assert_allclose(params.tau, [0.2, 0.3, 0.4])
    np.testing.assert_allclose(params.beta, [0.5, 0.6, 0.7])

    # center XI: beta row x pairs with the second-factor Bloch vector
    state = xd.hyperplane_state(
        xd.perp_set(xd.pauli_to_point("XI")),
        {"XI": 0.1, "IX": 0.2, "IY": 0.3, "IZ": 0.4, "XX": 0.5, "XY": 0.6, "XZ": 0.7},
    )
    params = xd.extract_group1_params(state)
    assert params.tau0 == 0.1
    np.testing.assert_allclose(params.tau, [0.2, 0.3, 0.4])
    np.testing.assert_allclose(params.beta, [0.5, 0.6, 0.7])

    with pytest.raises(ValueError):
        xd.extract_group1_params(xd.hyperplane_state(xd.perp_set(xd.pauli_to_point("ZZ")), {}))


def test_maximally_mixed_grid_and_ovoid_states_coincide_with_families():
    # with all Bloch coefficients zero, a grid or ovoid state has the same
    # density matrix as its associated perp-set family with the same
    # correlation coefficients
    rng = np.random.default_rng(57)
    for h in [g for g in xd.grids() if g.index != 0] + list(xd.ovoids()):
        center = xd.associated_center(h)
        beta_labels = [lab for lab in h.labels() if "I" not in lab]
        coeffs = dict(zip(beta_labels, rng.uniform(-1, 1, len(beta_labels))))
        state = xd.hyperplane_state(h, coeffs)
        family_state = xd.hyperplane_state(xd.perp_set(center), coeffs)
        np.testing.assert_allclose(
            xd.build_density_matrix(state), xd.build_density_matrix(family_state)
        )


def test_builders_round_trip_through_extraction():
    rng = np.random.default_rng(3)
    for center in (5, 10, 15):  # XX, ZZ, YY
        tau1, tau2, beta0 = rng.uniform(-1, 1, 3)
        m = rng.uniform(-1, 1, (2, 2))
        state = group2_state(center, tau1, tau2, beta0, m)
        params = xd.extract_group2_params(state)
        assert (params.tau1, params.tau2, params.beta0) == (tau1, tau2, beta0)
        np.testing.assert_allclose(params.m, m)
    for center in (1, 4):  # IX, XI
        tau0 = rng.uniform(-1, 1)
        tau = rng.uniform(-1, 1, 3)
        beta = rng.uniform(-1, 1, 3)
        params = xd.extract_group1_params(group1_state(center, tau0, tau, beta))
        assert params.tau0 == tau0
        np.testing.assert_allclose(params.tau, tau)
        np.testing.assert_allclose(params.beta, beta)
