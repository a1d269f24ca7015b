"""The three tau = 0 routes agree on and next to every disc boundary.

Each state is built with its point exactly on one of the four circles
|sE - C| = r, |sE + C| = R, |E - C| = r, |E + C| = r, or k * 1e-10 inside
or outside it.  The eigenvalues of such a state are (1 +- beta0 +- a disc
distance) / 4, so the offsets k in {0.5, 2, 3.5, 5} fall on both sides of
the spectral tolerance (1e-10 on eigenvalues, 4e-10 on distances) and on
both sides of 1e-10 on distances.  A state that happens to sit within
1e-12 of the tolerance edge of some circle, where rounding alone decides
each route, is left out.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import xdoily as xd
from xdoily.regions import classify_by_region_batch, dual_classify_by_region_batch
from xdoily.spectra import classify_batch, detect_type, ppt_verdicts
from xdoily.states import Group2Params, density_batch, group2_batch

GROUP2_CENTERS = [p for p in xd.POINTS if xd.group_of(p) == 2]
BOUNDARIES = ("valid_small", "valid_large", "separable_c", "separable_minus_c")
OFFSETS = (0.0,) + tuple(sign * k * 1e-10 for k in (0.5, 2.0, 3.5, 5.0) for sign in (1.0, -1.0))


def _circle_offsets(beta0, t, m):
    """(distance - radius) of the state's point from each of the four circles."""
    r, big_r = 1.0 - abs(beta0), 1.0 + abs(beta0)
    s = (1.0 if beta0 >= 0.0 else -1.0) * (-1.0) ** t
    e = np.stack([m[..., 0, 0], -m[..., 0, 1]], axis=-1)
    c = np.stack([m[..., 1, 1], m[..., 1, 0]], axis=-1)
    norm = np.linalg.norm
    return np.stack(
        [norm(s * e - c, axis=-1) - r, norm(s * e + c, axis=-1) - big_r,
         norm(e - c, axis=-1) - r, norm(e + c, axis=-1) - r],
        axis=-1,
    )


def _boundary_m(boundary, beta0, t, c, angle, offset):
    """The block M whose point E = (b1, -b2) lies at the given distance off one circle."""
    r, big_r = 1.0 - abs(beta0), 1.0 + abs(beta0)
    s = (1.0 if beta0 >= 0.0 else -1.0) * (-1.0) ** t
    c = np.asarray(c)
    u = np.array([np.cos(angle), np.sin(angle)])
    if boundary == "valid_small":  # |sE - C| = r
        e = s * (c + (r + offset) * u)
    elif boundary == "valid_large":  # |sE + C| = R
        e = s * (-c + (big_r + offset) * u)
    elif boundary == "separable_c":  # |E - C| = r
        e = c + (r + offset) * u
    else:  # |E + C| = r
        e = -c + (r + offset) * u
    return np.array([[e[0], -e[1]], [c[1], c[0]]])  # [[b1, b2], [b3, b4]], C = (b4, b3)


@given(
    center=st.sampled_from(GROUP2_CENTERS),
    boundary=st.sampled_from(BOUNDARIES),
    beta0=st.floats(-0.9, 0.9),
    c_radius=st.floats(0.0, 0.9),
    c_angle=st.floats(0.0, 2.0 * np.pi),
    angle=st.floats(0.0, 2.0 * np.pi),
)
def test_disc_dual_and_ppt_agree_at_boundaries(center, boundary, beta0, c_radius, c_angle, angle):
    t = detect_type(center)
    c = c_radius * np.array([np.cos(c_angle), np.sin(c_angle)])
    m = np.stack([_boundary_m(boundary, beta0, t, c, angle, d) for d in OFFSETS])
    n = len(OFFSETS)
    params = Group2Params(0.0, 0.0, np.full(n, beta0), m, t)
    rho = density_batch(group2_batch(center, 0.0, 0.0, params.beta0, m))
    ppt = classify_batch(rho)[2]
    # The verdict-only kernel agrees with classify_batch everywhere, edge states included.
    np.testing.assert_array_equal(ppt_verdicts(rho), ppt)
    disc = classify_by_region_batch(params)
    dual = dual_classify_by_region_batch(params)
    at_edge = (np.abs(_circle_offsets(beta0, t, m) - 4e-10) < 1e-12).any(axis=-1)
    for k, offset in enumerate(OFFSETS):
        if at_edge[k]:
            continue
        assert disc[k] == ppt[k], (offset, xd.CLASSES[disc[k]], xd.CLASSES[ppt[k]])
        assert dual[k] == ppt[k], (offset, xd.CLASSES[dual[k]], xd.CLASSES[ppt[k]])
