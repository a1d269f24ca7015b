"""Hyperplane census, the quadric Q0, intersections and the catalog."""

from itertools import combinations

import pytest

from xdoily import gf2, hyperplanes as hp


def test_census_counts_and_sizes():
    hs = hp.enumerate_hyperplanes()
    assert len(hs) == 31
    assert hp.hyperplane_census() == (15, 10, 6)
    assert {h.size for h in hs if h.kind == "perp"} == {7}
    assert {h.size for h in hs if h.kind == "grid"} == {9}
    assert {h.size for h in hs if h.kind == "ovoid"} == {5}


def test_full_and_empty_sets_are_not_hyperplanes():
    assert not hp.is_geometric_hyperplane(0)
    assert not hp.is_geometric_hyperplane(hp.FULL_MASK)


def test_exhaustive_search_matches_size_census():
    masks = hp.search_hyperplane_masks()
    assert len(masks) == 31
    assert sorted(m.bit_count() for m in masks) == [5] * 6 + [7] * 15 + [9] * 10


def test_perp_sets_are_the_fano_traces():
    perp_masks = {h.mask for h in hp.enumerate_hyperplanes() if h.kind == "perp"}
    for p in gf2.POINTS:
        h = hp.perp_set(p)
        assert h.mask == hp.point_mask(gf2.fano_plane(p))
        assert h.mask in perp_masks
        assert p in h


def test_perp_set_anchor_zz():
    labels = set(hp.perp_set(gf2.pauli_to_point("ZZ")).labels())
    assert labels == {"ZZ", "YY", "XX", "XY", "YX", "IZ", "ZI"}


def test_perp_set_anchor_ix():
    labels = set(hp.perp_set(gf2.pauli_to_point("IX")).labels())
    assert labels == {"XX", "YX", "ZX", "XI", "YI", "ZI", "IX"}


def test_quadric_q0():
    q0 = hp.quadric_q0()
    assert q0.kind == "grid" and q0.index == 0
    assert set(q0.labels()) == {"XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ"}
    assert gf2.pauli_to_point("IX") not in q0
    assert q0.mask in {h.mask for h in hp.grids()}


def test_group_partition():
    groups = [hp.group_of(p) for p in gf2.POINTS]
    assert groups.count(1) == 6 and groups.count(2) == 9
    assert hp.group_of(gf2.pauli_to_point("IX")) == 1
    assert hp.group_of(gf2.pauli_to_point("ZZ")) == 2
    q0 = hp.quadric_q0()
    for p in gf2.POINTS:
        assert (hp.group_of(p) == 2) == (p in q0)


def test_intersections_with_q0():
    tangential = []
    transverse = []
    for p in gf2.POINTS:
        rep = hp.intersect_with_q0(hp.perp_set(p))
        n = rep.common_mask.bit_count()
        if rep.kind == "tangential":
            assert n == 5
            tangential.append(p)
        else:
            assert n == 3
            transverse.append(p)
            pts = rep.common_points()
            for a, b in combinations(pts, 2):
                assert not hp.collinear_within(hp.quadric_q0(), a, b)
    assert len(tangential) == 9 and len(transverse) == 6
    assert all(hp.group_of(p) == 2 for p in tangential)
    assert all(hp.group_of(p) == 1 for p in transverse)


def test_intersection_anchors():
    xi = hp.intersect_with_q0(hp.perp_set(gf2.pauli_to_point("XI")))
    assert xi.kind == "transverse"
    assert set(xi.common_labels()) == {"XX", "XY", "XZ"}
    zz = hp.intersect_with_q0(hp.perp_set(gf2.pauli_to_point("ZZ")))
    assert zz.kind == "tangential"
    assert set(zz.common_labels()) == {"ZZ", "XX", "YY", "XY", "YX"}


def test_intersect_rejects_non_perp():
    with pytest.raises(ValueError):
        hp.intersect_with_q0(hp.quadric_q0())


def test_perp_grid_sections():
    # every perp/grid pair meets in 5 points or an independent 3-point set
    for grid in hp.grids():
        for p in gf2.POINTS:
            common = hp.mask_points(grid.mask & hp.perp_set(p).mask)
            assert len(common) in (3, 5)
            if len(common) == 3:
                for a, b in combinations(common, 2):
                    assert not hp.collinear_within(grid, a, b)


def test_associated_center_bijections():
    grid_centers = [hp.associated_center(g) for g in hp.grids() if g.index != 0]
    assert sorted(grid_centers) == sorted(p for p in gf2.POINTS if hp.group_of(p) == 2)
    ovoid_centers = [hp.associated_center(o) for o in hp.ovoids()]
    assert sorted(ovoid_centers) == sorted(p for p in gf2.POINTS if hp.group_of(p) == 1)
    with pytest.raises(ValueError):
        hp.associated_center(hp.quadric_q0())


def _associated_center_by_scan(h):
    """Reference: the perp-sets meeting Q0 where h does, found by scanning all 15."""
    q0 = hp.quadric_q0().mask
    common = h.mask & q0
    if h.kind == "grid":
        cands = [
            p for p in gf2.POINTS
            if hp.group_of(p) == 2 and (hp.point_mask(gf2.fano_plane(p)) & q0) == common
        ]
    else:
        cands = [
            p for p in gf2.POINTS
            if hp.group_of(p) == 1 and (common & hp.point_mask(gf2.fano_plane(p))) == common
        ]
    assert len(cands) == 1, cands
    return cands[0]


def test_associated_center_matches_scan():
    others = [g for g in hp.grids() if g.index != 0] + list(hp.ovoids())
    assert len(others) == 15
    for h in others:
        assert hp.associated_center(h) == _associated_center_by_scan(h)
    for p in gf2.POINTS:
        assert hp.associated_center(hp.perp_set(p)) == p


def _symplectic_by_sweep():
    """Reference: every 4x4 matrix over GF(2), kept when its columns preserve sigma.

    Words run over the basis images (e1, e2, e3, e4) = points (8, 4, 2, 1);
    over GF(2), preserving the form pairwise already forces invertibility.
    """
    basis = (8, 4, 2, 1)
    target = {
        (i, j): gf2.symplectic_form(basis[i], basis[j])
        for i in range(4)
        for j in range(i + 1, 4)
    }
    perms = []
    for word in range(1 << 16):
        cols = ((word >> 12) & 15, (word >> 8) & 15, (word >> 4) & 15, word & 15)
        if 0 in cols:
            continue
        if any(
            gf2.symplectic_form(cols[i], cols[j]) != target[(i, j)]
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            continue
        images = [0] * 16
        for p in gf2.POINTS:
            img = 0
            for bit, col in zip(basis, cols):
                if p & bit:
                    img ^= col
            images[p] = img
        perms.append(tuple(images))
    return tuple(perms)


def test_symplectic_group_order():
    assert len(hp.symplectic_transformations()) == 720


def test_transvection_closure_matches_sweep():
    assert hp.symplectic_transformations() == _symplectic_by_sweep()


def test_enumeration_does_not_build_the_symplectic_group():
    for cached in (hp.enumerate_hyperplanes, hp._lookup, hp.symplectic_transformations):
        cached.cache_clear()
    hp.enumerate_hyperplanes()
    assert hp.symplectic_transformations.cache_info().currsize == 0


def test_ovoid_stabilizers_tie_at_120():
    # the documented tie that forces ascending-mask ovoid indexing
    orders = [hp.stabilizer_order(o.mask) for o in hp.ovoids()]
    assert orders == [120] * 6


def test_rotational_families():
    rf = hp.rotational_grid_families()
    assert hp._perm_order(rf.rotation) == 5
    fam_a, fam_b = rf.grid_families
    assert len(fam_a) == len(fam_b) == 5
    assert 0 in fam_a
    assert sorted(fam_a + fam_b) == list(range(10))
    assert len(rf.ovoid_orbit) == 5
    assert rf.fixed_ovoid not in rf.ovoid_orbit
    assert sorted(len(o) for o in rf.point_orbits) == [5, 5, 5]


def test_family_support_composition():
    # Group-1 perp-sets carry 4 single-factor and 3 two-factor observables,
    # Group-2 perp-sets 2 and 5.
    for p in gf2.POINTS:
        labels = hp.perp_set(p).labels()
        singles = sum(1 for lab in labels if "I" in lab)
        doubles = len(labels) - singles
        if hp.group_of(p) == 1:
            assert (singles, doubles) == (4, 3)
        else:
            assert (singles, doubles) == (2, 5)


def test_catalog_rows():
    rows = hp.catalog_rows()
    assert len(rows) == 15
    assert [r["group"] for r in rows] == [1] * 6 + [2] * 9
    by_label = {r["label"]: r for r in rows}
    assert set(by_label["YY"]["members"]) == {"YY", "XX", "XZ", "ZX", "ZZ", "IY", "YI"}
    assert all(len(r["members"]) == 7 for r in rows)


def test_catalog_table_shape():
    table = hp.catalog_table()
    lines = table.strip().splitlines()
    assert len(lines) == 17  # title + header + 15 rows
    assert lines[0] == "Fano planes of PG(3,2) by group"


def test_hyperplane_records():
    recs = hp.hyperplane_records()
    assert len(recs) == 31
    kinds = {r["kind"] for r in recs}
    assert kinds == {"perp", "grid", "ovoid"}
    grid_ids = sorted(r["id"] for r in recs if r["kind"] == "grid")
    assert grid_ids == list(range(10))
    ovoid_ids = sorted(r["id"] for r in recs if r["kind"] == "ovoid")
    assert ovoid_ids == list(range(1, 7))


def test_hyperplane_lookup():
    assert hp.hyperplane_by_id("perp", "ZZ").center == gf2.pauli_to_point("ZZ")
    assert hp.hyperplane_by_id("grid", 0).mask == hp.quadric_q0().mask
    assert hp.hyperplane_by_id("ovoid", 1).kind == "ovoid"
    with pytest.raises(ValueError):
        hp.hyperplane_by_id("grid", 10)
    with pytest.raises(ValueError):
        hp.hyperplane_by_id("ovoid", 0)
    with pytest.raises(ValueError):
        hp.hyperplane_by_id("blob", 1)
    with pytest.raises(ValueError):
        hp.hyperplane_by_points(["XX", "YY"])
