"""`analyze` on descriptors over all 31 hyperplanes and at the input edges, against a golden.

The golden holds the exit code, stdout and stderr of each case.  It pins
every verdict, eigenvalue and measure digit `analyze` prints, and each
one-line error.  To rewrite it after an intended output change:

    PYTHONPATH=src python tests/test_analyze_golden.py > tests/data/analyze_golden.txt
"""

import io
import json
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import xdoily as xd
from xdoily import cli
from xdoily.states import ALL_LABELS, group2_batch
from test_boundaries import BOUNDARIES, OFFSETS, _boundary_m

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.txt"


def _descriptor_text(hyperplane, coefficients) -> str:
    return json.dumps({"hyperplane": {"kind": hyperplane.kind, "id": hyperplane.id}, "coefficients": coefficients})


def _seeded_cases():
    """One seeded state per hyperplane, and the same state with its tau (one-factor) terms dropped."""
    rng = np.random.default_rng(2020)
    for h in xd.enumerate_hyperplanes():
        coefficients = dict(zip(h.labels(), rng.uniform(-0.4, 0.4, h.size).tolist()))
        two_factor = {label: v for label, v in coefficients.items() if "I" not in label}
        yield f"seeded {h.kind} {h.id}", _descriptor_text(h, coefficients)
        yield f"seeded {h.kind} {h.id} two-factor", _descriptor_text(h, two_factor)


def _boundary_cases():
    """tau = 0 states on and next to each disc circle, on a perp-set of each type and on a grid."""
    type1 = next(p for p in xd.POINTS if xd.group_of(p) == 2 and xd.detect_type(p) == 1)
    type2 = next(p for p in xd.POINTS if xd.group_of(p) == 2 and xd.detect_type(p) == 2)
    grid = xd.grids()[1]
    families = (
        (xd.perp_set(type1), type1, 0.45, (0.3, -0.2), 0.7),
        (xd.perp_set(type2), type2, -0.3, (-0.1, 0.4), 2.1),
        (grid, xd.associated_center(grid), 0.2, (0.25, 0.15), 4.0),
    )
    for h, center, beta0, c, angle in families:
        t = xd.detect_type(center)
        for boundary in BOUNDARIES:
            for offset in OFFSETS:
                m = _boundary_m(boundary, beta0, t, c, angle, offset)
                vector = group2_batch(center, 0.0, 0.0, beta0, m)
                coefficients = {ALL_LABELS[k]: float(vector[k]) for k in np.flatnonzero(vector)}
                yield f"{h.kind} {h.id} {boundary} {offset:+.1e}", _descriptor_text(h, coefficients)


def _edge_cases():
    """Input edges: named states, tau at the tolerance, malformed and overflowing input."""
    zz = '{"hyperplane": {"kind": "perp", "id": "ZZ"}, "coefficients": '
    digits = "1" + "0" * sys.get_int_max_str_digits()
    yield "epr", zz + '{"XX": 1.0, "YY": -1.0, "ZZ": 1.0}}'
    yield "zero state", zz + "{}}"
    yield "group-1 perp-set", '{"hyperplane": {"kind": "perp", "id": "IX"}, "coefficients": {"XX": 0.4}}'
    yield "q0 grid", '{"hyperplane": {"kind": "grid", "id": 0}, "coefficients": {"XX": 0.3, "YY": -0.3, "ZZ": 0.3}}'
    yield "ovoid", '{"hyperplane": {"kind": "ovoid", "id": 1}, "coefficients": {"XX": 0.5, "ZI": 0.2}}'
    yield "within tolerance of a disc boundary", (
        '{"hyperplane": {"kind": "perp", "id": "XX"}, "coefficients": '
        '{"XX": 0.3, "ZZ": 0.2, "ZY": 0.1, "YZ": 0.1, "YY": -0.9000000001999999}}'
    )
    for tau in (1e-11, 1e-10, 5e-10, 1e-9):
        yield f"tau {tau:.0e}", zz + f'{{"ZI": {tau!r}, "XX": 0.5}}}}'
        yield f"tau -{tau:.0e}", zz + f'{{"IZ": {-tau!r}, "XX": 0.5}}}}'
    yield "off-hyperplane coefficient", zz + '{"XZ": 0.4}}'
    yield "duplicate key", zz + '{"XX": 0.1, "XX": 0.9}}'
    yield "bad json", "{not json"
    yield "empty file", ""
    yield "not an object", "[]"
    yield "unknown field", '{"hyperplane": {"kind": "perp", "id": "ZZ"}, "extra": 1}'
    yield "unknown hyperplane", '{"hyperplane": {"kind": "grid", "id": 99}}'
    yield "boolean coefficient", zz + '{"XX": true}}'
    yield "NaN coefficient", zz + '{"XX": NaN}}'
    yield "infinite coefficient", zz + '{"XX": -Infinity}}'
    yield "divergent spectrum", zz + '{"XX": 1e308, "YY": 1e308}}'
    yield "overflowing spectrum", zz + '{"XX": 1e160, "YY": -1.0, "ZZ": 1.0}}'
    yield "overflowing measure", '{"hyperplane": {"kind": "perp", "id": "IX"}, "coefficients": {"XX": 1e200}}'
    yield "integer beyond float range", zz + '{"XX": 1' + "0" * 400 + "}}"
    yield "integer over digit limit", zz + '{"XX": ' + digits + "}}"
    yield "nested too deeply", "[" * 100_000


def _cases():
    yield from _seeded_cases()
    yield from _boundary_cases()
    yield from _edge_cases()


def golden_text() -> str:
    """One record per case: its name, exit code, stdout and stderr."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "state.json")
        for name, text in _cases():
            Path(path).write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)  # as under pytest
                code = cli.main(["analyze", path])
            records.append(f"== {name}\nexit: {code}\n-- stdout\n{out.getvalue()}-- stderr\n{err.getvalue()}")
    return "".join(records)


def test_analyze_matches_golden():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_text())
