"""Two-qubit X-states and hyperplane-states on the symplectic polar space W(3,2).

The package enumerates the finite geometry (points, isotropic lines, the 31
geometric hyperplanes), builds density matrices from hyperplane-supported
Pauli coefficients, and decides validity, separability, entanglement and
Bell violation both by closed forms and by independent numeric oracles.
"""

__version__ = "0.1.0"

from .bell import (
    ConstantMCurve,
    NonlocalityReport,
    bell_m_closed,
    bell_m_closed_batch,
    bell_m_oracle,
    bell_m_oracle_batch,
    constant_m_curve,
    heatmap_m,
    m_upper_bound,
    purity_equivalence_check,
    sample_constant_m_points,
)
from .gf2 import (
    POINTS,
    coords,
    enumerate_lines,
    fano_plane,
    isotropic_lines,
    parse_point,
    pauli_to_point,
    point_from_coords,
    point_str,
    point_sum,
    point_to_pauli,
    symplectic_form,
)
from .hyperplanes import (
    Hyperplane,
    IntersectionReport,
    associated_center,
    catalog_rows,
    catalog_table,
    enumerate_hyperplanes,
    grids,
    group_of,
    hyperplane_by_id,
    hyperplane_by_points,
    hyperplane_census,
    intersect_with_q0,
    ovoids,
    perp_set,
    quadric_q0,
)
from .regions import (
    RegionGeometry,
    classify_by_region,
    classify_by_region_batch,
    dual_classify_by_region,
    dual_classify_by_region_batch,
    l_minus,
    l_plus,
    region_emptiness,
    region_geometry,
    sample_region,
    sign_rule_fuzz,
)
from .spectra import (
    CLASSES,
    SpectralReport,
    classify,
    classify_batch,
    detect_type,
    detected_types,
    eig_hermitian4,
    group1_eigenvalues,
    group1_eigenvalues_batch,
    group2_eigenvalues,
    group2_eigenvalues_batch,
    ppt_verdicts,
)
from .states import (
    Group1Params,
    Group2Params,
    HyperplaneState,
    StateCoeffs,
    StateDescriptorError,
    build_density_matrix,
    decompose_density_matrix,
    density_batch,
    extract_group1_params,
    extract_group2_params,
    group1_batch,
    group1_state,
    group2_batch,
    group2_state,
    hyperplane_batch,
    hyperplane_state,
    make_named_state,
    partial_transpose,
    pauli_matrix,
    reduced_states,
    state_from_descriptor,
)
