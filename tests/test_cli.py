"""Command-line surface: verbs, formats and the exit-code contract."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from xdoily import cli

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_catalog_table():
    code, out, _ = run_cli("catalog", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    rows = [ln for ln in lines if ln and ln[0] in "12"]
    assert len(rows) == 15
    assert sum(1 for ln in rows if ln.startswith("1")) == 6
    assert sum(1 for ln in rows if ln.startswith("2")) == 9
    assert "perp-sets  15" in out
    assert "grids      10" in out
    assert "ovoids      6" in out
    assert "total      31" in out


def test_catalog_json():
    code, out, _ = run_cli("catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["fano_planes"]) == 15
    assert len(payload["hyperplanes"]) == 31
    assert all(len(r["members"]) == 7 for r in payload["fano_planes"])


def test_catalog_json_matches_golden():
    # Written by the CLI when ovoids were still ordered through a stabilizer
    # tie-break; pins every hyperplane id to its points.
    code, out, _ = run_cli("catalog", "--format", "json")
    assert code == 0
    assert out == (DATA / "catalog_golden.json").read_text(encoding="utf-8")


def test_catalog_unknown_format_is_usage_error():
    code, _, err = run_cli("catalog", "--format", "xml")
    assert code == 64
    assert "error" in err


def test_catalog_out_file(tmp_path):
    target = tmp_path / "catalog.txt"
    code, out, _ = run_cli("catalog", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("Fano planes")


def test_catalog_unwritable_out_is_io_error(tmp_path):
    code, _, err = run_cli("catalog", "--out", str(tmp_path / "no" / "dir" / "x.txt"))
    assert code == 2
    assert "i/o" in err


def _write_state(tmp_path, descriptor, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(descriptor))
    return str(path)


def test_analyze_epr(tmp_path):
    path = _write_state(
        tmp_path,
        {
            "hyperplane": {"kind": "perp", "id": "ZZ"},
            "coefficients": {"XX": 1.0, "YY": -1.0, "ZZ": 1.0},
        },
    )
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["entangled"] is True
    assert payload["separable"] is False
    assert abs(payload["m_value"] - 2.0) < 1e-12
    assert payload["region_classification"] == "entangled"


def test_analyze_zero_state(tmp_path):
    path = _write_state(
        tmp_path, {"hyperplane": {"kind": "perp", "id": "ZZ"}, "coefficients": {}}
    )
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["separable"] is True
    assert payload["m_value"] == 0.0
    assert payload["region_classification"] == "separable"


def test_analyze_group1_state_has_no_region_route(tmp_path):
    path = _write_state(
        tmp_path,
        {"hyperplane": {"kind": "perp", "id": "IX"}, "coefficients": {"XX": 0.4}},
    )
    code, out, _ = run_cli("analyze", path)
    assert code == 0
    assert json.loads(out)["region_classification"] is None


def test_analyze_off_hyperplane_coefficient(tmp_path):
    path = _write_state(
        tmp_path,
        {"hyperplane": {"kind": "perp", "id": "ZZ"}, "coefficients": {"XZ": 0.4}},
    )
    code, _, err = run_cli("analyze", path)
    assert code == 65
    assert "hyperplane" in err


def test_analyze_duplicate_key_is_data_error(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"hyperplane": {"kind": "perp", "id": "ZZ"}, "coefficients": {"XX": 0.1, "XX": 0.9}}')
    code, out, err = run_cli("analyze", str(path))
    assert code == 65 and out == ""
    assert err == "invalid state descriptor: duplicate key 'XX'\n"


def test_analyze_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli("analyze", str(path))
    assert code == 65
    assert "JSON" in err


def test_analyze_missing_file():
    code, _, err = run_cli("analyze", "/nonexistent/state.json")
    assert code == 2
    assert "i/o" in err


def test_region_csv():
    code, out, _ = run_cli("region", "--beta0", "0.45", "--c", "0.4,-0.3", "--resolution", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta1,beta2,class"
    assert len(lines) == 65


def test_region_bad_resolution():
    code, _, _ = run_cli("region", "--beta0", "0.45", "--c", "0.4,-0.3", "--resolution", "1")
    assert code == 64


def test_region_bad_c():
    code, _, _ = run_cli("region", "--beta0", "0.45", "--c", "1;2")
    assert code == 64


def test_heatmap_csv():
    code, out, _ = run_cli("heatmap", "--beta0", "0.45", "--c", "0.4,-0.3", "--resolution", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta1,beta2,m"
    assert len(lines) == 65


def test_curve_json():
    code, out, _ = run_cli("curve", "--k", "1", "--beta0", "0.45", "--c", "0.6,0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["circle"]["r"] - 0.8) < 1e-12
    assert payload["regime"] == "circle-ellipse-arcs"
    assert len(payload["intersections"]) == 4
    assert payload["ellipse"]["foci"] == [[0.6, 0.0], [-0.6, 0.0]]


def test_verify_geometry():
    code, out, _ = run_cli("verify", "geometry", "--seed", "42", "--draws", "50")
    assert code == 0
    assert "31 hyperplanes: 15/10/6" in out
    assert "seed: 42" in out
    assert out.strip().endswith("result: PASS")


def test_verify_small_all():
    code, out, _ = run_cli("verify", "all", "--seed", "42", "--draws", "60")
    assert code == 0
    assert "result: PASS" in out


def test_verify_zero_draws_is_usage_error():
    code, _, _ = run_cli("verify", "region", "--draws", "0")
    assert code == 64


def test_verify_unknown_suite_is_usage_error():
    code, _, _ = run_cli("verify", "everything")
    assert code == 64


def test_unknown_flag_is_usage_error():
    code, _, _ = run_cli("catalog", "--formt", "table")
    assert code == 64


def test_missing_verb_is_usage_error():
    code, _, _ = run_cli()
    assert code == 64


def test_region_negative_c_space_separated():
    code, out, _ = run_cli("region", "--c", "-0.3,0.4", "--beta0", "0.45", "--resolution", "4")
    assert code == 0
    assert out == run_cli("region", "--c=-0.3,0.4", "--beta0=0.45", "--resolution", "4")[1]


def test_region_negative_exponent_beta0_space_separated():
    code, out, _ = run_cli("region", "--beta0", "-1e-3", "--c", "0.4,-0.3", "--resolution", "4")
    assert code == 0
    assert out == run_cli("region", "--beta0=-1e-3", "--c=0.4,-0.3", "--resolution", "4")[1]


def test_curve_negative_beta0_space_separated():
    code, out, _ = run_cli("curve", "--k", "1", "--beta0", "-2e-1", "--c", "-.6,0")
    assert code == 0
    assert json.loads(out)["regime"] == "circle-ellipse-arcs"


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--beta0", "nan", "--c", "0.4,-0.3"),
        ("heatmap", "--beta0", "inf", "--c", "0.4,-0.3"),
        ("region", "--beta0", "0.1", "--c", "0.4,-inf"),
        ("curve", "--k", "nan", "--beta0", "0.45", "--c", "0.6,0"),
        ("curve", "--k", "1e400", "--beta0", "0.45", "--c", "0.6,0"),
    ],
)
def test_non_finite_number_is_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 64
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [("region", "--draws", "1"), ("all", "--draws", "3")])
def test_verify_small_draws_pass(argv):
    code, out, _ = run_cli("verify", *argv)
    assert code == 0
    assert out.strip().endswith("result: PASS")


def test_analyze_overflow_prints_one_line_to_stderr(tmp_path):
    # A fresh process, so numpy's warnings would reach stderr unfiltered.
    path = _write_state(
        tmp_path,
        {"hyperplane": {"kind": "perp", "id": "ZZ"},
         "coefficients": {"XX": 1e160, "YY": -1.0, "ZZ": 1.0}},
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "xdoily.cli", "analyze", path],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 65
    assert proc.stdout == ""
    assert proc.stderr == "input out of range: the result holds a non-finite number\n"


def test_analyze_overflowing_result_is_data_error(tmp_path):
    # beta^T beta overflows, so the measure is not finite: no NaN/Infinity JSON
    path = _write_state(
        tmp_path, {"hyperplane": {"kind": "perp", "id": "IX"}, "coefficients": {"XX": 1e200}}
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli("analyze", path)
    assert code == 65
    assert out == ""
    assert "non-finite" in err
