"""Property suites behind the `verify` command.

Each suite returns a list of named checks with pass/fail state and a short
detail string; failing checks carry their first counterexamples.  All
randomness is seeded, so a given (seed, draws) pair is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bell import (
    bell_m_closed,
    bell_m_closed_batch,
    bell_m_oracle_batch,
    constant_m_curve,
    evaluate_m_batch,
    m_upper_bound_batch,
    purity_equivalence_batch,
    sample_constant_m_points,
)
from .gf2 import (
    POINTS,
    enumerate_lines,
    fano_plane,
    isotropic_lines,
    lines_through,
    point_to_pauli,
)
from .hyperplanes import (
    associated_center,
    collinear_within,
    enumerate_hyperplanes,
    grids,
    group_of,
    hyperplane_census,
    intersect_with_q0,
    mask_points,
    ovoids,
    perp_set,
    point_mask,
    quadric_q0,
    rotational_grid_families,
    symplectic_transformations,
)
from .regions import (
    DRAW_CHUNK,
    classify_by_region_batch,
    dual_classify_by_region_batch,
    region_emptiness,
    sample_region,
    sign_rule_fuzz,
)
from .spectra import (
    CLASSES,
    ENTANGLED,
    INVALID,
    classify_batch,
    detect_type,
    detected_types,
    group1_eigenvalues_batch,
    group2_eigenvalues_batch,
    ppt_verdicts,
)
from .states import (
    Group2Params,
    beta_batch,
    density_batch,
    extract_group2_params,
    group1_batch,
    group1_params_batch,
    group2_batch,
    group2_params_batch,
    hyperplane_batch,
    make_named_state,
)

SUITES = ("geometry", "spectral", "region", "nonlocality")

# The bound on each closed form's error against its numeric oracle, and the
# slack on each inequality a suite checks (ceilings, ranges, unit trace).
ORACLE_TOL = 1e-10


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _group1_centers() -> list[int]:
    return [p for p in POINTS if group_of(p) == 1]


def _group2_centers() -> list[int]:
    return [p for p in POINTS if group_of(p) == 2]


def _group2_families() -> tuple[np.ndarray, np.ndarray]:
    """The Group-2 centers and their type tags, as arrays indexed by family."""
    centers = _group2_centers()
    return np.array(centers), np.array([detect_type(c) for c in centers])


def _chunks(total: int):
    """Sizes of the kernel calls that together cover `total` draws."""
    for done in range(0, total, DRAW_CHUNK):
        yield min(DRAW_CHUNK, total - done)


def _random_vectors(hyperplane, rng, n: int) -> np.ndarray:
    """n states with coefficients uniform in [-1, 1] on the hyperplane's labels."""
    return hyperplane_batch(hyperplane, rng.uniform(-1, 1, (n, hyperplane.size)))


def _general_tau_draws(rng, n: int):
    """(tau1, tau2, beta0, M) of n Group-2 draws, M uniform on [-1, 1]^4.

    (tau1, tau2, beta0) is uniform on the tetrahedron where the four
    outcome probabilities (1 + s1 tau1 + s2 tau2 + s1 s2 beta0) / 4 of
    measuring the center's commuting pair a x I, I x b are nonnegative.
    Every valid state lies in it (to within VALIDITY_TOL on its faces), and
    it is a third of [-1, 1]^3.
    """
    p = rng.dirichlet(np.ones(4), n)  # outcome probabilities for (s1, s2) = ++, +-, -+, --
    tau1 = p[:, 0] + p[:, 1] - p[:, 2] - p[:, 3]
    tau2 = p[:, 0] - p[:, 1] + p[:, 2] - p[:, 3]
    beta0 = p[:, 0] - p[:, 1] - p[:, 2] + p[:, 3]
    return tau1, tau2, beta0, rng.uniform(-1, 1, (n, 2, 2))


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def geometry_suite(seed: int = 42, draws: int = 0) -> list[CheckResult]:
    checks: list[CheckResult] = []

    lines = enumerate_lines()
    ok = len(lines) == 35 and all(len(lines_through(p)) == 7 for p in POINTS)
    checks.append(CheckResult("geometry", "projective incidence", ok, "35 lines, 7 through each point"))

    iso = isotropic_lines()
    per_point = all(sum(p in line for line in iso) == 3 for p in POINTS)
    triangles = 0
    for l1, l2, l3 in combinations(iso, 3):
        m12 = set(l1) & set(l2)
        m13 = set(l1) & set(l3)
        m23 = set(l2) & set(l3)
        if len(m12) == len(m13) == len(m23) == 1 and len(m12 | m13 | m23) == 3:
            triangles += 1
    ok = len(iso) == 15 and per_point and triangles == 0
    checks.append(
        CheckResult(
            "geometry",
            "doily incidence",
            ok,
            f"15 points, 15 lines, 3+3 incidences, {triangles} triangles",
        )
    )

    counts = hyperplane_census()
    checks.append(
        CheckResult(
            "geometry",
            "hyperplane census",
            counts == (15, 10, 6),
            f"31 hyperplanes: {counts[0]}/{counts[1]}/{counts[2]}",
        )
    )

    hs = enumerate_hyperplanes()
    perp_masks = {h.mask for h in hs if h.kind == "perp"}
    ok = all(point_mask(fano_plane(p)) in perp_masks for p in POINTS)
    checks.append(CheckResult("geometry", "perp-sets equal commutant planes", ok, "15 of 15"))

    sizes_ok = True
    for grid in grids():
        for p in POINTS:
            common = mask_points(grid.mask & perp_set(p).mask)
            if len(common) not in (3, 5):
                sizes_ok = False
            elif len(common) == 3 and any(
                collinear_within(grid, a, b) for a, b in combinations(common, 2)
            ):
                sizes_ok = False
    checks.append(
        CheckResult(
            "geometry",
            "perp/grid sections are 5-point or independent 3-point sets",
            sizes_ok,
            "150 pairs checked",
        )
    )

    tang = [p for p in POINTS if intersect_with_q0(perp_set(p)).kind == "tangential"]
    trans = [p for p in POINTS if p not in tang]
    ok = (
        len(tang) == 9
        and len(trans) == 6
        and all(group_of(p) == 2 for p in tang)
        and all(group_of(p) == 1 for p in trans)
        and all(p in quadric_q0() for p in tang)
    )
    checks.append(
        CheckResult(
            "geometry",
            "quadric section split",
            ok,
            f"{len(tang)} tangential (Group 2), {len(trans)} transverse (Group 1)",
        )
    )

    grid_centers = sorted(associated_center(g) for g in grids() if g.index != 0)
    ovoid_centers = sorted(associated_center(o) for o in ovoids())
    ok = grid_centers == sorted(_group2_centers()) and ovoid_centers == sorted(_group1_centers())
    checks.append(
        CheckResult(
            "geometry",
            "grid and ovoid families biject onto the perp-set families",
            ok,
            "9 grids <-> Group 2, 6 ovoids <-> Group 1",
        )
    )

    n_maps = len(symplectic_transformations())
    rf = rotational_grid_families()
    ok = (
        n_maps == 720
        and len(rf.grid_families[0]) == 5
        and len(rf.grid_families[1]) == 5
        and 0 in rf.grid_families[0]
        and len(rf.ovoid_orbit) == 5
        and sorted(len(o) for o in rf.point_orbits) == [5, 5, 5]
    )
    checks.append(
        CheckResult(
            "geometry",
            "order-5 rotational families",
            ok,
            f"|Sp(4,2)| = {n_maps}; grids {rf.grid_families[0]} / {rf.grid_families[1]}; "
            f"fixed ovoid O{rf.fixed_ovoid}",
        )
    )
    return checks


def spectral_suite(seed: int = 42, draws: int = 1000) -> list[CheckResult]:
    """Closed-form spectra against the numeric oracle, `draws` draws per family."""
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    max_err = 0.0
    max_multiset = 0.0
    max_sum_err = 0.0
    g1_sep_violations = 0
    for center in _group1_centers():
        for n in _chunks(draws):
            x = rng.uniform(-1, 1, (n, 7))  # per draw: tau0, tau, beta
            vectors = group1_batch(center, x[:, 0], x[:, 1:4], x[:, 4:7])
            eigs, eigs_g, verdicts = classify_batch(density_batch(vectors))
            lam = group1_eigenvalues_batch(group1_params_batch(center, vectors))
            max_err = max(max_err, _max_abs(lam - eigs), _max_abs(lam - eigs_g))
            max_multiset = max(max_multiset, _max_abs(eigs - eigs_g))
            max_sum_err = max(max_sum_err, _max_abs(eigs.sum(axis=-1) - 1.0))
            g1_sep_violations += _count(verdicts == ENTANGLED)
    checks.append(
        CheckResult(
            "spectral",
            "Group-1 closed form matches oracle",
            max_err <= ORACLE_TOL,
            f"max |closed - oracle| = {max_err:.3e} over {draws} draws x 6 families",
        )
    )
    checks.append(
        CheckResult(
            "spectral",
            "Group-1 spectra equal their partial-transpose spectra",
            max_multiset <= ORACLE_TOL,
            f"max multiset deviation = {max_multiset:.3e}",
        )
    )
    checks.append(
        CheckResult(
            "spectral",
            "valid Group-1 states are separable",
            g1_sep_violations == 0,
            f"{g1_sep_violations} violations",
        )
    )

    types = detected_types()
    max_err2 = 0.0
    # The Y-parity rule is confirmed when, for every family, the swapped form
    # misses the oracle on at least one draw.
    unresolved = 0
    for center in _group2_centers():
        t = types[point_to_pauli(center)]
        swapped_err = 0.0
        for n in _chunks(draws):
            x = rng.uniform(-1, 1, (n, 7))  # per draw: tau1, tau2, beta0, M row-major
            tau1, tau2, beta0, m = x[:, 0], x[:, 1], x[:, 2], x[:, 3:].reshape(n, 2, 2)
            eigs, eigs_g, _ = classify_batch(density_batch(group2_batch(center, tau1, tau2, beta0, m)))
            lam, gam = group2_eigenvalues_batch(Group2Params(tau1, tau2, beta0, m, t))
            max_err2 = max(max_err2, _max_abs(lam - eigs), _max_abs(gam - eigs_g))
            swapped_err = max(swapped_err, _max_abs(gam - eigs), _max_abs(lam - eigs_g))
            max_sum_err = max(max_sum_err, _max_abs(eigs.sum(axis=-1) - 1.0))
        unresolved += swapped_err <= ORACLE_TOL
    checks.append(
        CheckResult(
            "spectral",
            "Group-2 closed form matches oracle",
            max_err2 <= ORACLE_TOL,
            f"max |closed - oracle| = {max_err2:.3e} over {draws} draws x 9 families",
        )
    )
    checks.append(
        CheckResult(
            "spectral",
            "each Group-2 family resolves to one closed form",
            len(types) == 9 and unresolved == 0,
            " ".join(f"{lab}:{t}" for lab, t in sorted(types.items())),
        )
    )
    checks.append(
        CheckResult(
            "spectral",
            "eigenvalues sum to one",
            max_sum_err <= ORACLE_TOL,
            f"max |sum - 1| = {max_sum_err:.3e}",
        )
    )

    ovoid_sep_violations = 0
    ovoid_draws = max(1, draws // 2)
    for ovoid in ovoids():
        for n in _chunks(ovoid_draws):
            verdicts = ppt_verdicts(density_batch(_random_vectors(ovoid, rng, n)))
            ovoid_sep_violations += _count(verdicts == ENTANGLED)
    checks.append(
        CheckResult(
            "spectral",
            "valid ovoid states are separable",
            ovoid_sep_violations == 0,
            f"{ovoid_sep_violations} violations over {ovoid_draws} draws x 6 ovoids",
        )
    )
    return checks


def region_suite(seed: int = 42, draws: int = 10000) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    centers, types = _group2_families()

    mismatches = []
    dual_mismatches = []
    done = 0
    for n in _chunks(draws):
        family = (done + np.arange(n)) % len(centers)  # draw k goes to family k mod 9
        done += n
        x = rng.uniform(-1, 1, (n, 5))  # per draw: beta0, then M row-major
        beta0, m = x[:, 0], x[:, 1:].reshape(n, 2, 2)
        params = Group2Params(0.0, 0.0, beta0, m, types[family])
        spectral = ppt_verdicts(density_batch(group2_batch(centers[family], 0.0, 0.0, beta0, m)))
        region = classify_by_region_batch(params)
        dual = dual_classify_by_region_batch(params)
        for k in np.flatnonzero(region != spectral)[: 5 - len(mismatches)]:
            mismatches.append({"center": point_to_pauli(int(centers[family[k]])), "beta0": float(beta0[k]),
                               "m": m[k].tolist(), "region": CLASSES[region[k]], "spectral": CLASSES[spectral[k]]})
        for k in np.flatnonzero(dual != region)[: 5 - len(dual_mismatches)]:
            dual_mismatches.append({"center": point_to_pauli(int(centers[family[k]])), "beta0": float(beta0[k]),
                                    "m": m[k].tolist()})
    checks.append(
        CheckResult(
            "region",
            "disc classification agrees with PPT",
            not mismatches,
            f"{draws} draws" + (f"; first mismatches {mismatches}" if mismatches else ""),
        )
    )
    checks.append(
        CheckResult(
            "region",
            "primal and dual disc routes agree",
            not dual_mismatches,
            f"{draws} draws" + (f"; first mismatches {dual_mismatches}" if dual_mismatches else ""),
        )
    )

    fuzz = sign_rule_fuzz(draws, seed=seed)
    checks.append(
        CheckResult(
            "region",
            "sign rule beta0 < 0 iff L+ > L- on valid entangled states",
            fuzz.passed and fuzz.tested > 0,
            f"{fuzz.tested} of {fuzz.draws} draws valid and entangled, "
            f"{len(fuzz.counterexamples)} counterexamples"
            + (f": {fuzz.counterexamples[:2]}" if fuzz.counterexamples else ""),
        )
    )

    emptiness_ok = True
    details = []
    for beta0, b3, b4 in ((0.45, -0.3, 0.4), (0.0, 1.0, 1.0), (0.9, 0.0, 0.5)):
        v_ok, s_ok = region_emptiness(beta0, b3, b4)
        classes = {cls for _, _, cls in sample_region(beta0, b3, b4, 1, 41)}
        if not v_ok and classes != {"invalid"}:
            emptiness_ok = False
        if not s_ok and "separable" in classes:
            emptiness_ok = False
        if v_ok and s_ok and "separable" not in classes:
            emptiness_ok = False
        details.append(f"({beta0},{b3},{b4})->V:{v_ok},S:{s_ok}")
    checks.append(
        CheckResult("region", "emptiness conditions match sampled cells", emptiness_ok, "; ".join(details))
    )

    rows = sample_region(0.0, 0.2, 0.3, 1, 41)
    n_ent = sum(1 for _, _, cls in rows if cls == "entangled")
    checks.append(
        CheckResult(
            "region",
            "beta0 = 0 yields no entangled cells",
            n_ent == 0,
            f"{n_ent} entangled cells",
        )
    )
    return checks


def nonlocality_suite(seed: int = 42, draws: int = 10000) -> list[CheckResult]:
    """The measure M against its oracle, its ceilings and the purity link.

    The general-tau ceiling sweep draws (tau1, tau2, beta0) from the
    tetrahedron of nonnegative outcome probabilities (_general_tau_draws),
    which drops no valid state because every valid state has them
    nonnegative; PPT still decides which draws are valid.
    """
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    centers, types = _group2_families()

    # Closed form against the oracle, across the nine perp families and the
    # nine non-Q0 grids (which share the same correlation support).
    families = [(perp_set(c), c) for c in _group2_centers()]
    families += [(g, associated_center(g)) for g in grids() if g.index != 0]
    per_family = max(10, draws // len(families))
    max_err = 0.0
    for h, center in families:
        for n in _chunks(per_family):
            vectors = _random_vectors(h, rng, n)
            # The type tag is irrelevant for the measure.
            closed = bell_m_closed_batch(group2_params_batch(center, vectors, 1)).m_value
            oracle = bell_m_oracle_batch(beta_batch(vectors))
            max_err = max(max_err, _max_abs(closed - oracle))
    checks.append(
        CheckResult(
            "nonlocality",
            "closed measure matches oracle",
            max_err <= ORACLE_TOL,
            f"max |closed - oracle| = {max_err:.3e} over {per_family} draws x {len(families)} families",
        )
    )

    # Valid tau=0 sweep: ceiling, range, purity link, Bell implies entangled.
    collected = 0
    attempts = 0
    bound_viol = 0
    range_viol = 0
    purity_viol = 0
    bell_viol = 0
    bell_hits = 0
    while collected < draws and attempts < 100 * draws:
        n = min(DRAW_CHUNK, 100 * draws - attempts)
        family = (attempts + 1 + np.arange(n)) % len(centers)  # attempt k goes to family k mod 9
        attempts += n
        x = rng.uniform(-1, 1, (n, 5))  # per draw: beta0, then M row-major
        verdicts = classify_by_region_batch(Group2Params(0.0, 0.0, x[:, 0], x[:, 1:].reshape(n, 2, 2), types[family]))
        keep = np.flatnonzero(verdicts != INVALID)[: draws - collected]
        collected += len(keep)
        family, beta0, m = family[keep], x[keep, 0], x[keep, 1:].reshape(-1, 2, 2)
        params = Group2Params(0.0, 0.0, beta0, m, types[family])
        m_val = bell_m_closed_batch(params).m_value
        bound_viol += _count(m_val > 1.0 + beta0 * beta0 + ORACLE_TOL)
        range_viol += _count((m_val < -ORACLE_TOL) | (m_val > 2.0 + ORACLE_TOL))
        maximal, pure = purity_equivalence_batch(params)
        purity_viol += _count(maximal != pure)
        hot = m_val > 1.0
        bell_hits += _count(hot)
        if hot.any():
            rho = density_batch(group2_batch(centers[family[hot]], 0.0, 0.0, beta0[hot], m[hot]))
            bell_viol += _count(ppt_verdicts(rho) != ENTANGLED)
    checks.append(
        CheckResult(
            "nonlocality",
            "tau=0 ceiling M <= 1 + beta0^2",
            bound_viol == 0 and collected == draws,
            f"{bound_viol} violations over {collected} valid draws",
        )
    )
    checks.append(
        CheckResult(
            "nonlocality", "M stays within [0, 2] on valid states", range_viol == 0,
            f"{range_viol} violations",
        )
    )
    checks.append(
        CheckResult(
            "nonlocality",
            "maximal violation and purity co-occur",
            purity_viol == 0,
            f"{purity_viol} one-sided outcomes",
        )
    )
    checks.append(
        CheckResult(
            "nonlocality",
            "Bell violation implies entanglement",
            bell_viol == 0,
            f"{bell_hits} violating draws, {bell_viol} not entangled",
        )
    )

    epr = extract_group2_params(make_named_state("epr_phi_plus"))
    epr_report = bell_m_closed(epr)
    ok = epr_report.m_value == 2.0 and epr.beta0**2 + epr_report.b == 3.0
    checks.append(
        CheckResult(
            "nonlocality",
            "the EPR state attains M = 2 with beta0^2 + B = 3",
            ok,
            f"M = {epr_report.m_value}, beta0^2 + B = {epr.beta0 ** 2 + epr_report.b}",
        )
    )

    # General-tau ceiling on valid draws (validity via the numeric route).
    general_target = max(100, draws // 10)
    general_cap = 200 * general_target
    general_viol = 0
    general_seen = 0
    general_attempts = 0
    while general_seen < general_target and general_attempts < general_cap:
        n = min(DRAW_CHUNK, general_cap - general_attempts)
        family = (general_attempts + 1 + np.arange(n)) % len(centers)
        general_attempts += n
        tau1, tau2, beta0, m = _general_tau_draws(rng, n)
        verdicts = ppt_verdicts(density_batch(group2_batch(centers[family], tau1, tau2, beta0, m)))
        keep = np.flatnonzero(verdicts != INVALID)[: general_target - general_seen]
        general_seen += len(keep)
        params = Group2Params(tau1[keep], tau2[keep], beta0[keep], m[keep], types[family[keep]])
        general_viol += _count(bell_m_closed_batch(params).m_value > m_upper_bound_batch(params) + ORACLE_TOL)
    checks.append(
        CheckResult(
            "nonlocality",
            "general-tau ceiling holds on valid draws",
            general_viol == 0 and general_seen == general_target,
            f"{general_viol} violations over {general_seen} valid draws",
        )
    )

    # Constant-measure curves: sampled arc points reproduce the level.
    curve_err = 0.0
    windows_ok = True
    for k, beta0, b3, b4 in ((1.0, 0.45, 0.0, 0.6), (1.0, 0.45, -0.3, 0.4), (1.2, 0.8, 0.1, 0.3)):
        curve = constant_m_curve(k, beta0, b3, b4)
        if curve.regime == "undefined":
            continue
        pts = sample_constant_m_points(curve, 64)
        curve_err = max(curve_err, _max_abs(evaluate_m_batch(beta0, b3, b4, pts[:, 0], pts[:, 1]) - k))
        c_sq = b3 * b3 + b4 * b4
        expect_crossings = beta0 * beta0 <= c_sq
        if bool(curve.intersections) != expect_crossings:
            windows_ok = False
    checks.append(
        CheckResult(
            "nonlocality",
            "constant-measure arcs evaluate to the level",
            curve_err <= 1e-8,
            f"max |M - k| = {curve_err:.3e}",
        )
    )
    checks.append(
        CheckResult(
            "nonlocality",
            "crossing points appear exactly in the predicted window",
            windows_ok,
            "window m2 <= k <= m2 + beta4^2 (rotated frame)",
        )
    )

    # Group-1 families and ovoids: valid draws never violate a Bell inequality.
    lr_draws = max(50, draws // 20)
    lr_viol = 0
    for h in [perp_set(c) for c in _group1_centers()] + list(ovoids()):
        for n in _chunks(lr_draws):
            vectors = _random_vectors(h, rng, n)
            valid = ppt_verdicts(density_batch(vectors)) != INVALID
            lr_viol += _count(valid & (bell_m_oracle_batch(beta_batch(vectors)) > 1.0 + ORACLE_TOL))
    checks.append(
        CheckResult(
            "nonlocality",
            "valid Group-1 and ovoid states stay local",
            lr_viol == 0,
            f"{lr_viol} violations over {lr_draws} draws x 12 families",
        )
    )
    return checks


def run_suites(names, seed: int = 42, draws: int = 10000) -> list[CheckResult]:
    suite_fns = {
        "geometry": geometry_suite,
        "spectral": lambda s, d: spectral_suite(s, max(50, d // 15)),
        "region": region_suite,
        "nonlocality": nonlocality_suite,
    }
    out: list[CheckResult] = []
    for name in names:
        out.extend(suite_fns[name](seed, draws))
    return out
