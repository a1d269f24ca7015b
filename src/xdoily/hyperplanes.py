"""Geometric hyperplanes of W(3,2): perp-sets, grids and ovoids.

A geometric hyperplane is a proper point subset that meets every totally
isotropic line either in all three of its points or in exactly one.
Exhaustive search over all 2^15 point subsets yields exactly 31 of them:
15 perp-sets (7 points each), 10 grids (9 points) and 6 ovoids (5 points).
Hyperplanes are stored as 15-bit masks, bit p-1 standing for point p.

Grid indices pin Q0 to the hyperbolic quadric x1 x2 + x3 x4 + x1 + x2 + x3
+ x4 = 0, the unique grid whose points all carry two nontrivial Pauli
factors; the remaining grids are numbered 1..9 by ascending mask.  Ovoids
are numbered 1..6 by ascending mask: all six have stabilizers of order 120
inside Sp(4,2), so none stands out to lead.  No index-level agreement with
any particular drawing of the Doily is claimed.

The 720 point maps of Sp(4,2) are the closure of its 15 transvections,
built on first use by stabilizer_order and rotational_grid_families; the
enumeration itself never needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf2 import (
    POINTS,
    coords,
    fano_plane,
    isotropic_lines,
    pauli_to_point,
    point_str,
    point_to_pauli,
    symplectic_form,
)

FULL_MASK = (1 << 15) - 1

_BASIS = (8, 4, 2, 1)  # e1..e4 as points
_IDENTITY = tuple(range(16))


def point_mask(points) -> int:
    """15-bit mask of a point collection."""
    mask = 0
    for p in points:
        mask |= 1 << (p - 1)
    return mask


def mask_points(mask: int) -> tuple[int, ...]:
    return tuple(p for p in POINTS if mask & (1 << (p - 1)))


@dataclass(frozen=True)
class Hyperplane:
    """A classified 15-bit point mask."""

    mask: int
    kind: str                  # "perp" | "grid" | "ovoid"
    index: int | None = None   # grids 0..9, ovoids 1..6
    center: int | None = None  # perp-sets only

    def points(self) -> tuple[int, ...]:
        return mask_points(self.mask)

    def labels(self) -> tuple[str, ...]:
        return tuple(point_to_pauli(p) for p in self.points())

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def id(self):
        """Serialized identifier: center label for perp-sets, index otherwise."""
        return point_to_pauli(self.center) if self.kind == "perp" else self.index

    def __contains__(self, point: int) -> bool:
        return bool(self.mask & (1 << (point - 1)))


@dataclass(frozen=True)
class IntersectionReport:
    """Common points of a perp-set with the quadric Q0."""

    left: Hyperplane
    right: Hyperplane
    common_mask: int
    kind: str  # "tangential" | "transverse"

    def common_points(self) -> tuple[int, ...]:
        return mask_points(self.common_mask)

    def common_labels(self) -> tuple[str, ...]:
        return tuple(point_to_pauli(p) for p in self.common_points())


@lru_cache(maxsize=1)
def _line_masks() -> tuple[int, ...]:
    return tuple(point_mask(line) for line in isotropic_lines())


def is_geometric_hyperplane(mask: int) -> bool:
    """Test a point mask against the 15 isotropic lines.

    The empty set never qualifies; the full point set would, but is rejected
    as improper so that the census counts 31.
    """
    if mask <= 0 or mask >= FULL_MASK:
        return False
    for lm in _line_masks():
        common = mask & lm
        if common != lm and common.bit_count() != 1:
            return False
    return True


def search_hyperplane_masks() -> list[int]:
    """Exhaustive sweep over all 2^15 subsets; returns the 31 qualifying masks."""
    return [m for m in range(1 << 15) if is_geometric_hyperplane(m)]


def _q0_mask() -> int:
    selected = []
    for p in POINTS:
        x1, x2, x3, x4 = coords(p)
        if (x1 * x2 + x3 * x4 + x1 + x2 + x3 + x4) % 2 == 0:
            selected.append(p)
    return point_mask(selected)


@lru_cache(maxsize=1)
def symplectic_transformations() -> tuple[tuple[int, ...], ...]:
    """Point permutations induced by Sp(4,2); there are 720 of them.

    Entry t[p] is the image of point p (index 0 unused).  The group is the
    closure of the 15 transvections T_v(x) = x + sigma(x, v) v, one per
    point v, which generate it (Taylor, The Geometry of the Classical
    Groups, 1992).  The maps are sorted by their basis images
    (t[8], t[4], t[2], t[1]), the order of a sweep over all matrices by
    their columns, so "the first order-5 map" in rotational_grid_families
    names a fixed map.
    """
    transvections = [
        (0,) + tuple(p ^ v if symplectic_form(p, v) else p for p in POINTS)
        for v in POINTS
    ]
    group = {_IDENTITY}
    frontier = [_IDENTITY]
    while frontier:
        frontier = [
            g for g in {_perm_compose(t, f) for f in frontier for t in transvections}
            if g not in group
        ]
        group.update(frontier)
    return tuple(sorted(group, key=lambda t: tuple(t[b] for b in _BASIS)))


def transform_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for p in mask_points(mask):
        out |= 1 << (perm[p] - 1)
    return out


def stabilizer_order(mask: int) -> int:
    """Order of the subgroup of Sp(4,2) preserving a point mask."""
    return sum(1 for t in symplectic_transformations() if transform_mask(mask, t) == mask)


@lru_cache(maxsize=1)
def enumerate_hyperplanes() -> tuple[Hyperplane, ...]:
    """All 31 hyperplanes: perp-sets, then grids Q0..Q9, then ovoids O1..O6."""
    masks = search_hyperplane_masks()
    perp_by_mask = {point_mask(fano_plane(p)): p for p in POINTS}
    perps: list[Hyperplane] = []
    grid_masks: list[int] = []
    ovoid_masks: list[int] = []
    for m in masks:
        n = m.bit_count()
        if n == 7:
            center = perp_by_mask.get(m)
            if center is None:
                raise AssertionError(f"7-point hyperplane is not a perp-set: {m:#06x}")
            perps.append(Hyperplane(m, "perp", center=center))
        elif n == 9:
            grid_masks.append(m)
        elif n == 5:
            ovoid_masks.append(m)
        else:
            raise AssertionError(f"hyperplane of unexpected size {n}: {m:#06x}")
    q0 = _q0_mask()
    grid_masks.remove(q0)
    grids = [Hyperplane(q0, "grid", index=0)]
    grids += [
        Hyperplane(m, "grid", index=i)
        for i, m in enumerate(sorted(grid_masks), start=1)
    ]
    ovoids = [
        Hyperplane(m, "ovoid", index=i)
        for i, m in enumerate(sorted(ovoid_masks), start=1)
    ]
    perps.sort(key=lambda h: h.mask)
    return tuple(perps) + tuple(grids) + tuple(ovoids)


@lru_cache(maxsize=1)
def _lookup() -> dict:
    by_center: dict[int, Hyperplane] = {}
    by_grid: dict[int, Hyperplane] = {}
    by_ovoid: dict[int, Hyperplane] = {}
    by_mask: dict[int, Hyperplane] = {}
    for h in enumerate_hyperplanes():
        by_mask[h.mask] = h
        if h.kind == "perp":
            by_center[h.center] = h
        elif h.kind == "grid":
            by_grid[h.index] = h
        else:
            by_ovoid[h.index] = h
    return {"perp": by_center, "grid": by_grid, "ovoid": by_ovoid, "mask": by_mask}


def perp_set(p: int) -> Hyperplane:
    """The perp-set hyperplane H_p = {q : sigma(p, q) = 0}."""
    h = _lookup()["perp"].get(p)
    if h is None:
        raise ValueError(f"not a point of PG(3,2): {p!r}")
    return h


def quadric_q0() -> Hyperplane:
    """The distinguished grid whose points all carry two nontrivial factors."""
    return _lookup()["grid"][0]


def grids() -> tuple[Hyperplane, ...]:
    table = _lookup()["grid"]
    return tuple(table[i] for i in range(10))


def ovoids() -> tuple[Hyperplane, ...]:
    table = _lookup()["ovoid"]
    return tuple(table[i] for i in range(1, 7))


def hyperplane_by_id(kind, ident) -> Hyperplane:
    """Resolve the serialized form: ("perp", "ZZ"), ("grid", 0..9), ("ovoid", 1..6)."""
    if kind == "perp":
        return perp_set(pauli_to_point(ident))
    if kind in ("grid", "ovoid"):
        if isinstance(ident, bool) or not isinstance(ident, int):
            raise ValueError(f"{kind} id must be an integer, got {ident!r}")
        h = _lookup()[kind].get(ident)
        if h is None:
            raise ValueError(f"no {kind} with index {ident}")
        return h
    raise ValueError(f"unknown hyperplane kind {kind!r}")


def hyperplane_by_points(points_or_labels) -> Hyperplane:
    """Find the hyperplane with exactly this point set (labels accepted)."""
    pts = [
        pauli_to_point(x) if isinstance(x, str) else x
        for x in points_or_labels
    ]
    h = _lookup()["mask"].get(point_mask(pts))
    if h is None:
        raise ValueError("the given point set is not a geometric hyperplane")
    return h


def group_of(p: int) -> int:
    """2 when both Pauli factors are nontrivial (p lies on Q0), else 1."""
    if not 1 <= p <= 15:
        raise ValueError(f"not a point of PG(3,2): {p!r}")
    return 2 if (p & 0b1100) and (p & 0b0011) else 1


def detect_type(center: int) -> int:
    """Which closed eigenvalue form a Group-2 family follows, by the Y-parity rule.

    The second form, with the spectra of rho and of its partial transpose
    swapped, holds when exactly one factor of the center is Y (XY, ZY, YX,
    YZ): then the center's Pauli matrix is imaginary, and Y is the only Pauli
    that is odd under transpose.  The spectral verify suite checks the rule
    against the numeric oracle.
    """
    if group_of(center) != 2:
        raise ValueError("detect_type needs a Group-2 center")
    return 2 if ((center >> 2) & 3 == 3) != (center & 3 == 3) else 1


def intersect_with_q0(h: Hyperplane) -> IntersectionReport:
    """Intersection type of a perp-set with Q0.

    Tangential (5 common points) exactly when the center lies on Q0,
    transverse (3 points, no two on a common grid line) otherwise.
    """
    if h.kind != "perp":
        raise ValueError("intersect_with_q0 expects a perp-set")
    q0 = quadric_q0()
    common = h.mask & q0.mask
    n = common.bit_count()
    if n == 5:
        kind = "tangential"
    elif n == 3:
        kind = "transverse"
    else:
        raise AssertionError(f"perp/Q0 intersection of unexpected size {n}")
    return IntersectionReport(h, q0, common, kind)


def collinear_within(h: Hyperplane, p: int, q: int) -> bool:
    """Whether p and q lie on a common isotropic line contained in h."""
    pair = point_mask((p, q))
    return any(
        (lm & pair) == pair and (lm & h.mask) == lm for lm in _line_masks()
    )


def associated_center(h: Hyperplane) -> int:
    """The X-state family sharing h's two-factor correlation support.

    A perp-set maps to its own center.  A grid other than Q0, or an ovoid,
    spans a Veldkamp line with Q0 whose third hyperplane is the complement
    of their symmetric difference (Saniga et al., SIGMA 3, 075, 2007).  That
    third hyperplane is a perp-set meeting Q0 where h does: a Group-2 one
    for a grid, a Group-1 one for an ovoid.  Its center is the family.  Q0
    itself has no associated family.
    """
    if h.kind == "perp":
        return h.center
    q0 = quadric_q0().mask
    if h.mask == q0:
        raise ValueError("Q0 has no associated perp-set family")
    return _lookup()["mask"][FULL_MASK ^ h.mask ^ q0].center


def hyperplane_census() -> tuple[int, int, int]:
    """(perp-sets, grids, ovoids) counts from the exhaustive enumeration."""
    hs = enumerate_hyperplanes()
    return (
        sum(1 for h in hs if h.kind == "perp"),
        sum(1 for h in hs if h.kind == "grid"),
        sum(1 for h in hs if h.kind == "ovoid"),
    )


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[b[p]] for p in range(16))


def _perm_order(perm: tuple[int, ...]) -> int:
    order, cur = 1, perm
    while cur != _IDENTITY:
        cur = _perm_compose(perm, cur)
        order += 1
        if order > 720:
            raise AssertionError("runaway permutation order")
    return order


def _mask_orbits(masks, perm) -> list[tuple[int, ...]]:
    remaining = list(masks)
    orbits = []
    while remaining:
        seed = remaining[0]
        orbit = {seed}
        cur = transform_mask(seed, perm)
        while cur != seed:
            orbit.add(cur)
            cur = transform_mask(cur, perm)
        orbits.append(tuple(sorted(orbit)))
        remaining = [m for m in remaining if m not in orbit]
    return orbits


@dataclass(frozen=True)
class RotationalFamilies:
    """Orbit split of the hyperplanes under one order-5 symplectic map."""

    rotation: tuple[int, ...]
    grid_families: tuple[tuple[int, ...], tuple[int, ...]]  # grid indices, Q0 first
    fixed_ovoid: int                                        # ovoid index
    ovoid_orbit: tuple[int, ...]
    point_orbits: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1)
def rotational_grid_families() -> RotationalFamilies:
    """Split the ten grids into the two orbits of an order-5 symplectic map.

    Any order-5 map moves the 15 points in three 5-cycles, the grids in two,
    and fixes exactly one ovoid while cycling the other five; the first
    order-5 map in canonical matrix order is used.
    """
    rotation = next(
        t for t in symplectic_transformations() if _perm_order(t) == 5
    )
    grid_index = {h.mask: h.index for h in grids()}
    grid_orbits = _mask_orbits(tuple(grid_index), rotation)
    if sorted(len(o) for o in grid_orbits) != [5, 5]:
        raise AssertionError(f"unexpected grid orbit sizes {[len(o) for o in grid_orbits]}")
    q0 = quadric_q0().mask
    first = next(o for o in grid_orbits if q0 in o)
    second = next(o for o in grid_orbits if q0 not in o)
    ovoid_index = {h.mask: h.index for h in ovoids()}
    ovoid_orbits = _mask_orbits(tuple(ovoid_index), rotation)
    fixed = [o for o in ovoid_orbits if len(o) == 1]
    moving = [o for o in ovoid_orbits if len(o) == 5]
    if len(fixed) != 1 or len(moving) != 1:
        raise AssertionError(f"unexpected ovoid orbit sizes {[len(o) for o in ovoid_orbits]}")
    point_orbits = _mask_orbits(tuple(1 << (p - 1) for p in POINTS), rotation)
    point_orbit_points = tuple(
        tuple(sorted(mask_points(m)[0] for m in orbit)) for orbit in point_orbits
    )
    if sorted(len(o) for o in point_orbit_points) != [5, 5, 5]:
        raise AssertionError("points do not split into three 5-orbits")
    return RotationalFamilies(
        rotation=rotation,
        grid_families=(
            tuple(sorted(grid_index[m] for m in first)),
            tuple(sorted(grid_index[m] for m in second)),
        ),
        fixed_ovoid=ovoid_index[fixed[0][0]],
        ovoid_orbit=tuple(sorted(ovoid_index[m] for m in moving[0])),
        point_orbits=point_orbit_points,
    )


def catalog_rows() -> list[dict]:
    """One record per point: Group-1 rows first, canonical order inside each group."""
    order = [p for p in POINTS if group_of(p) == 1] + [
        p for p in POINTS if group_of(p) == 2
    ]
    return [
        {
            "point": point_str(p),
            "label": point_to_pauli(p),
            "group": group_of(p),
            "members": [point_to_pauli(q) for q in fano_plane(p)],
        }
        for p in order
    ]


def catalog_table() -> str:
    """Fixed-width rendering of the 15 Fano planes split by group."""
    lines = [
        "Fano planes of PG(3,2) by group",
        f"{'group':<6} {'point':<10} {'label':<6} members",
    ]
    for row in catalog_rows():
        members = " ".join(row["members"])
        lines.append(f"{row['group']:<6} {row['point']:<10} {row['label']:<6} {members}")
    return "\n".join(lines) + "\n"


def hyperplane_records() -> list[dict]:
    """Serializable census of all 31 hyperplanes."""
    return [
        {
            "kind": h.kind,
            "id": h.id,
            "size": h.size,
            "points": [point_str(p) for p in h.points()],
            "labels": list(h.labels()),
        }
        for h in enumerate_hyperplanes()
    ]
