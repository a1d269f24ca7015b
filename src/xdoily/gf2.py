"""Points, lines and Fano planes of PG(3,2) with the two-qubit Pauli labelling.

A point is an integer in 1..15 whose four bits are the GF(2) coordinates
(x1, x2, x3, x4), x1 most significant.  Integer order coincides with the
lexicographic order on coordinate tuples, and that is the canonical order
used for every set-valued result in this package.  Serialized forms are
"[x1:x2:x3:x4]" and two-letter Pauli labels ("ZZ", "IX"); a label maps to
coordinates through A = Z^mu X^nu per tensor factor, so I=(0,0), X=(0,1),
Z=(1,0), Y=(1,1).  Phase factors are dropped throughout: only the quotient
classes of the two-qubit Pauli group are modelled.

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations

Point = int
Line = tuple[int, int, int]

POINTS: tuple[Point, ...] = tuple(range(1, 16))

_PAULI_BY_CODE = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}
_CODE_BY_PAULI = {char: code for code, char in _PAULI_BY_CODE.items()}


def _as_point(p) -> Point:
    """p as a plain int; any integral type but bool is accepted."""
    try:
        value = operator.index(p)
    except TypeError:
        value = 0
    if isinstance(p, bool) or not 1 <= value <= 15:
        raise ValueError(f"not a point of PG(3,2): {p!r}")
    return value


def coords(p: Point) -> tuple[int, int, int, int]:
    """Coordinate tuple (x1, x2, x3, x4) of a point."""
    p = _as_point(p)
    return ((p >> 3) & 1, (p >> 2) & 1, (p >> 1) & 1, p & 1)


def point_from_coords(bits) -> Point:
    bits = tuple(int(b) for b in bits)
    if len(bits) != 4 or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need four GF(2) coordinates, got {bits!r}")
    p = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3]
    if p == 0:
        raise ValueError("the zero vector is not a projective point")
    return p


def point_str(p: Point) -> str:
    """Render a point as "[x1:x2:x3:x4]"."""
    return "[{}:{}:{}:{}]".format(*coords(p))


def parse_point(text: str) -> Point:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed point {text!r}")
    parts = body[1:-1].split(":")
    if len(parts) != 4:
        raise ValueError(f"malformed point {text!r}")
    try:
        return point_from_coords(int(x) for x in parts)
    except ValueError as exc:
        raise ValueError(f"malformed point {text!r}: {exc}") from None


def pauli_to_point(label: str) -> Point:
    """Map a two-letter Pauli label to its point; II is rejected."""
    if not isinstance(label, str) or len(label) != 2 or any(ch not in _CODE_BY_PAULI for ch in label):
        raise ValueError(f"not a two-qubit Pauli label: {label!r}")
    if label == "II":
        raise ValueError("II is not a point of PG(3,2)")
    (m1, n1), (m2, n2) = _CODE_BY_PAULI[label[0]], _CODE_BY_PAULI[label[1]]
    return point_from_coords((m1, n1, m2, n2))


def point_to_pauli(p: Point) -> str:
    x1, x2, x3, x4 = coords(p)
    return _PAULI_BY_CODE[(x1, x2)] + _PAULI_BY_CODE[(x3, x4)]


def symplectic_form(p: Point, q: Point) -> int:
    """sigma(p, q) = p1 q2 + p2 q1 + p3 q4 + p4 q3 over GF(2).

    Vanishes exactly when the labelled observables commute; symmetric and
    alternating (sigma(p, p) = 0).
    """
    p, q = _as_point(p), _as_point(q)
    swapped = ((q & 0b1010) >> 1) | ((q & 0b0101) << 1)
    return (p & swapped).bit_count() & 1


def point_sum(p: Point, q: Point) -> Point:
    """Third point on the line through two distinct points (componentwise XOR)."""
    p, q = _as_point(p), _as_point(q)
    if p == q:
        raise ValueError("point_sum needs two distinct points (sum would be zero)")
    return p ^ q


@lru_cache(maxsize=1)
def enumerate_lines() -> tuple[Line, ...]:
    """All 35 lines of PG(3,2) as ascending point triples, canonically ordered."""
    lines = {tuple(sorted((p, q, p ^ q))) for p, q in combinations(POINTS, 2)}
    return tuple(sorted(lines))


def lines_through(p: Point) -> tuple[Line, ...]:
    p = _as_point(p)
    return tuple(line for line in enumerate_lines() if p in line)


def is_isotropic_line(line) -> bool:
    """Whether sigma vanishes on every pair of the line's points."""
    p, q, r = line
    return (
        symplectic_form(p, q) == 0
        and symplectic_form(p, r) == 0
        and symplectic_form(q, r) == 0
    )


@lru_cache(maxsize=1)
def isotropic_lines() -> tuple[Line, ...]:
    """The 15 totally isotropic lines.

    Together with the 15 points they form the Doily, the unique triangle-free
    configuration with 15 points, 15 lines, 3 points per line and 3 lines
    through each point.
    """
    return tuple(line for line in enumerate_lines() if is_isotropic_line(line))


def fano_plane(p: Point) -> tuple[Point, ...]:
    """F_p = {q : sigma(p, q) = 0}: the 7 points commuting with p, p included."""
    p = _as_point(p)
    return tuple(q for q in POINTS if symplectic_form(p, q) == 0)
