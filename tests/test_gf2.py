"""Point, line and Fano-plane layer."""

from itertools import combinations

import numpy as np
import pytest

from xdoily import gf2


def test_point_count_and_canonical_order():
    assert gf2.POINTS == tuple(range(1, 16))
    tuples = [gf2.coords(p) for p in gf2.POINTS]
    assert tuples == sorted(tuples)


def test_point_round_trips():
    for p in gf2.POINTS:
        assert gf2.point_from_coords(gf2.coords(p)) == p
        assert gf2.parse_point(gf2.point_str(p)) == p
        assert gf2.pauli_to_point(gf2.point_to_pauli(p)) == p


def test_points_accept_numpy_integers_not_bools():
    assert gf2.point_to_pauli(np.int64(5)) == "XX"
    with pytest.raises(ValueError):
        gf2.point_to_pauli(True)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        gf2.point_from_coords((0, 0, 0, 0))
    with pytest.raises(ValueError):
        gf2.pauli_to_point("II")
    with pytest.raises(ValueError):
        gf2.parse_point("[0:0:0:0]")


@pytest.mark.parametrize(
    "label,coords_str",
    [("YZ", "[1:1:1:0]"), ("IX", "[0:0:0:1]"), ("ZI", "[1:0:0:0]")],
)
def test_pauli_point_anchors(label, coords_str):
    assert gf2.point_str(gf2.pauli_to_point(label)) == coords_str


def test_symplectic_form_symmetric_alternating():
    for p in gf2.POINTS:
        assert gf2.symplectic_form(p, p) == 0
        for q in gf2.POINTS:
            assert gf2.symplectic_form(p, q) == gf2.symplectic_form(q, p)


def test_symplectic_form_anchors():
    s = gf2.symplectic_form
    assert s(gf2.parse_point("[1:0:1:0]"), gf2.parse_point("[0:1:1:1]")) == 0
    assert s(gf2.parse_point("[0:0:0:1]"), gf2.parse_point("[0:1:0:1]")) == 0
    # XX and ZZ anticommute
    assert s(gf2.pauli_to_point("XX"), gf2.pauli_to_point("ZX")) == 1


def test_point_sum():
    assert gf2.point_sum(gf2.parse_point("[0:1:0:1]"), gf2.parse_point("[1:0:1:0]")) == gf2.parse_point("[1:1:1:1]")
    assert gf2.point_sum(gf2.pauli_to_point("IX"), gf2.pauli_to_point("IZ")) == gf2.pauli_to_point("IY")
    for p, q in combinations(gf2.POINTS, 2):
        r = gf2.point_sum(p, q)
        assert gf2.point_sum(p, r) == q
    with pytest.raises(ValueError):
        gf2.point_sum(3, 3)


def test_line_counts():
    lines = gf2.enumerate_lines()
    assert len(lines) == 35
    assert all(len(set(line)) == 3 for line in lines)
    for p, q, r in lines:
        assert p ^ q == r or p ^ r == q  # sorted triple closed under XOR
    for p in gf2.POINTS:
        assert len(gf2.lines_through(p)) == 7


def test_lines_through_matches_pair_enumeration():
    # Independent construction: every unordered pair through p spans one line.
    p = gf2.parse_point("[1:0:1:0]")
    expected = {tuple(sorted((p, q, p ^ q))) for q in gf2.POINTS if q != p}
    assert set(gf2.lines_through(p)) == expected
    assert len(expected) == 7


def test_isotropic_lines_form_the_doily():
    iso = gf2.isotropic_lines()
    assert len(iso) == 15
    for line in iso:
        for a, b in combinations(line, 2):
            assert gf2.symplectic_form(a, b) == 0
    for p in gf2.POINTS:
        assert sum(p in line for line in iso) == 3
    # triangle-freeness, checked exhaustively over line triples
    for l1, l2, l3 in combinations(iso, 3):
        m12, m13, m23 = (
            set(l1) & set(l2),
            set(l1) & set(l3),
            set(l2) & set(l3),
        )
        if len(m12) == len(m13) == len(m23) == 1:
            assert len(m12 | m13 | m23) < 3


def test_fano_plane_anchor_sets():
    f = gf2.fano_plane(gf2.parse_point("[1:0:1:0]"))
    expected = {"[1:0:1:0]", "[0:1:1:1]", "[1:1:0:1]", "[0:0:1:0]", "[1:0:0:0]", "[0:1:0:1]", "[1:1:1:1]"}
    assert {gf2.point_str(p) for p in f} == expected

    f_ix = gf2.fano_plane(gf2.pauli_to_point("IX"))
    assert {gf2.point_to_pauli(p) for p in f_ix} == {"XX", "YX", "ZX", "XI", "YI", "ZI", "IX"}


def test_fano_planes_contain_center_and_close_under_sum():
    planes = set()
    for p in gf2.POINTS:
        f = gf2.fano_plane(p)
        assert len(f) == 7
        assert p in f
        for a, b in combinations(f, 2):
            assert a ^ b in f
        planes.add(f)
    assert len(planes) == 15
