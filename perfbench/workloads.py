"""The three benchmark workloads: request generation, execution and output checks.

Every workload is a closed loop: one caller issues request i, waits for it,
checks it, then issues request i + 1.  Request i is a pure function of the
workload seed and i, so a run is reproducible whatever its length.  Only
`execute` is timed; `prepare` and `check` run outside the timed section.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import xdoily as xd
from xdoily.states import state_from_descriptor

# Timed library calls go through module attributes, which a traced run patches.
from xdoily import bell, regions, verify

HERE = Path(__file__).resolve().parent

# Bounds the verify suites apply to their closed-versus-oracle errors.
MARGIN_BOUNDS = {"spectral_max_err": 1e-10, "nonlocality_max_err": 1e-10}
# Tolerance of the grid check between the closed-form measure and the oracle.
HEATMAP_M_TOL = 1e-9

_MAX_ERR = re.compile(r"max \|closed - oracle\| = ([-+0-9.eE]+)")


def request_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


@dataclass
class Outcome:
    ok: bool
    error: str = ""
    info: dict = field(default_factory=dict)


class VerifySweep:
    """`run_suites(SUITES, seed=s_i, draws=D)`, the library call behind `xdoily verify all`."""

    in_process = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        # About 1.5 s a request on a 2-vCPU VM, so a 30 s run holds about 20;
        # below ~300 draws the suites' fixed cost dominates.
        self.draws = 40 if tiny else 500

    def warm_up(self) -> None:
        verify.run_suites(verify.SUITES, seed=0, draws=10)

    def request(self, i: int) -> dict:
        return {"kind": "verify_all", "seed": int(request_rng(self.seed, i).integers(2**31))}

    def prepare(self, req: dict) -> None:
        pass

    def execute(self, req: dict):
        return verify.run_suites(verify.SUITES, seed=req["seed"], draws=self.draws)

    def check(self, req: dict, checks) -> Outcome:
        failed = [c for c in checks if not c.passed]
        # Parsed from the check details until CheckResult carries numeric fields.
        errs = {suite: [float(m.group(1)) for c in checks if c.suite == suite
                        for m in [_MAX_ERR.search(c.detail)] if m]
                for suite in ("spectral", "nonlocality")}
        if len(errs["spectral"]) != 2 or len(errs["nonlocality"]) != 1:
            return Outcome(False, "precision details missing from the check results")
        info = {
            "checks": len(checks),
            "checks_failed": len(failed),
            "spectral_max_err": max(errs["spectral"]),
            "nonlocality_max_err": errs["nonlocality"][0],
        }
        if failed:
            return Outcome(False, f"seed {req['seed']}: failed checks {[c.name for c in failed]}", info)
        # A margin over its bound fails the request rather than worsening a metric.
        if not all(info[key] <= bound for key, bound in MARGIN_BOUNDS.items()):
            return Outcome(False, f"seed {req['seed']}: precision margin over its bound", info)
        return Outcome(True, info=info)


# region_emptiness outcomes: (validity region nonempty, separability region nonempty).
STRATA = {"empty": (False, False), "valid_only": (True, False), "separable": (True, True)}


class GridScan:
    """One region or heatmap grid per request, its CSV text written to a sink.

    The inputs (beta0, C, t) cycle through the three emptiness strata so that
    every run covers them in the same proportions; within a stratum they are
    drawn at random.
    """

    in_process = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        # At res 200 one request's rows and CSV text are about 10 MiB of a
        # 50 MiB peak, so peak_rss_mb follows the grid and CSV layers.
        self.resolution = 16 if tiny else 200
        self.sampled_cells = 4 if tiny else 16
        types = xd.detected_types()
        self.center_for_type = {
            t: xd.pauli_to_point(next(label for label, tt in sorted(types.items()) if tt == t))
            for t in (1, 2)
        }

    def warm_up(self) -> None:
        regions.region_csv(regions.sample_region(0.3, 0.2, 0.1, 1, 8))
        bell.heatmap_csv(bell.heatmap_m(0.3, 0.2, 0.1, 8, 1))

    def request(self, i: int) -> dict:
        verb = ("region", "heatmap")[i % 2]
        stratum = tuple(STRATA)[(i // 2) % len(STRATA)]
        rng = request_rng(self.seed, i)
        while True:
            beta0 = float(rng.uniform(-1.0, 1.0))
            radius = 1.5 * math.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            beta4, beta3 = radius * math.cos(angle), radius * math.sin(angle)
            if xd.region_emptiness(beta0, beta3, beta4) == STRATA[stratum]:
                break
        return {"kind": verb, "stratum": stratum, "beta0": beta0, "beta3": beta3,
                "beta4": beta4, "t": int(rng.integers(1, 3)), "cells_seed": int(rng.integers(2**31))}

    def prepare(self, req: dict) -> None:
        pass

    def execute(self, req: dict) -> str:
        args = (req["beta0"], req["beta3"], req["beta4"])
        if req["kind"] == "region":
            text = regions.region_csv(regions.sample_region(*args, req["t"], self.resolution))
        else:
            text = bell.heatmap_csv(bell.heatmap_m(*args, self.resolution, t=req["t"]))
        with open(os.devnull, "w", encoding="utf-8") as sink:
            sink.write(text)
        return text

    def check(self, req: dict, text: str) -> Outcome:
        res = self.resolution
        header = "beta1,beta2,class" if req["kind"] == "region" else "beta1,beta2,m"
        lines = text.split("\n")
        if lines[0] != header or len(lines) != res * res + 2 or lines[-1] != "":
            return Outcome(False, f"{req['kind']}: expected header and {res * res} rows")
        step = 4.0 / res
        center = self.center_for_type[req["t"]]
        rng = np.random.default_rng(req["cells_seed"])
        # Half the sampled cells are drawn among the valid ones, which are a
        # few percent of the grid, so both sides of the boundary get checked.
        body = lines[1:-1]
        valid = [k for k, line in enumerate(body) if not line.endswith((",invalid", ","))]
        cells = [int(k) for k in rng.integers(0, len(body), self.sampled_cells // 2)]
        if valid:
            cells += [valid[k] for k in rng.integers(0, len(valid), self.sampled_cells // 2)]
        for cell in cells:
            i, j = divmod(cell, res)
            b1s, b2s, value = body[cell].split(",")
            b1, b2 = float(b1s), float(b2s)
            if b1 != -2.0 + (i + 0.5) * step or b2 != -2.0 + (j + 0.5) * step:
                return Outcome(False, f"{req['kind']}: row {cell} has the wrong cell center")
            m = np.array([[b1, b2], [req["beta3"], req["beta4"]]])
            state = xd.group2_state(center, 0.0, 0.0, req["beta0"], m)
            verdict = xd.classify(state).verdict
            if req["kind"] == "region":
                if value != verdict:
                    return Outcome(False, f"region: cell {cell} is {value}, PPT says {verdict}")
            elif (value == "") != (verdict == "invalid"):
                return Outcome(False, f"heatmap: cell {cell} validity disagrees with PPT ({verdict})")
            elif value and abs(float(value) - xd.bell_m_oracle(state.coeffs.beta)) > HEATMAP_M_TOL:
                return Outcome(False, f"heatmap: cell {cell} measure disagrees with the oracle")
        return Outcome(True)


# One cycle of the CLI request mix; each entry is a request kind.
CLI_MIX = (
    "catalog_table",
    "analyze_group1",
    "curve",
    "analyze_group2_tau0",
    "catalog_json",
    "analyze_group2_tau",
    "region",
    "analyze_grid",
    "analyze_q0",
    "analyze_ovoid",
    "analyze_off_hyperplane",
    "verify_geometry",
)


def _two_factor(labels) -> list[str]:
    return [label for label in labels if "I" not in label]


class CliCold:
    """Each request is a fresh `python3 -m xdoily.cli` process."""

    in_process = False

    def __init__(self, seed: int, tiny: bool, env: dict, out_dir: Path) -> None:
        self.seed = seed
        self.region_resolution = 8 if tiny else 40
        self.env = env
        self.descriptor_path = out_dir / "cli_descriptor.json"
        self.spans_path = out_dir / "cli_spans.json"
        self.traced = False

    def warm_up(self) -> None:
        pass

    def _descriptor(self, kind: str, rng) -> dict:
        if kind == "analyze_group1":
            centers = [p for p in xd.POINTS if xd.group_of(p) == 1]
            h = xd.perp_set(int(rng.choice(centers)))
            labels = list(h.labels())
        elif kind in ("analyze_group2_tau0", "analyze_group2_tau"):
            centers = [p for p in xd.POINTS if xd.group_of(p) == 2]
            h = xd.perp_set(int(rng.choice(centers)))
            labels = _two_factor(h.labels()) if kind == "analyze_group2_tau0" else list(h.labels())
        elif kind == "analyze_grid":
            h = xd.grids()[int(rng.integers(1, 10))]
            labels = _two_factor(h.labels())
        elif kind == "analyze_q0":
            h = xd.quadric_q0()
            labels = list(h.labels())
        elif kind == "analyze_ovoid":
            h = xd.ovoids()[int(rng.integers(0, 6))]
            labels = list(h.labels())
        else:  # analyze_off_hyperplane: one coefficient off the perp-set
            h = xd.perp_set(int(rng.integers(1, 16)))
            off = [xd.point_to_pauli(p) for p in xd.POINTS if p not in h]
            labels = list(h.labels()[:3]) + [str(rng.choice(off))]
        coeffs = {label: float(v) for label, v in zip(labels, rng.uniform(-0.5, 0.5, len(labels)))}
        return {"hyperplane": {"kind": h.kind, "id": h.id}, "coefficients": coeffs}

    def request(self, i: int) -> dict:
        kind = CLI_MIX[i % len(CLI_MIX)]
        rng = request_rng(self.seed, i)
        req = {"kind": kind, "expect": 0}
        if kind.startswith("catalog"):
            req["argv"] = ["catalog", "--format", kind.split("_")[1]]
        elif kind.startswith("analyze"):
            req["descriptor"] = self._descriptor(kind, rng)
            req["argv"] = ["analyze", str(self.descriptor_path)]
            if kind == "analyze_off_hyperplane":
                req["expect"] = 65
        elif kind == "curve":
            k, beta0 = float(rng.uniform(0.5, 1.8)), float(rng.uniform(-1.0, 1.0))
            b4, b3 = (float(v) for v in rng.uniform(-0.7, 0.7, 2))
            # The `=` form keeps argparse from reading a leading minus as an option.
            req["argv"] = ["curve", f"--k={k!r}", f"--beta0={beta0!r}", f"--c={b4!r},{b3!r}"]
        elif kind == "region":
            beta0 = float(rng.uniform(-1.0, 1.0))
            b4, b3 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
            req["argv"] = ["region", f"--beta0={beta0!r}", f"--c={b4!r},{b3!r}",
                           "--type", str(rng.integers(1, 3)), "--resolution", str(self.region_resolution)]
        else:
            req["argv"] = ["verify", "geometry", "--seed", str(self.seed)]
        return req

    def prepare(self, req: dict) -> None:
        if "descriptor" in req:
            self.descriptor_path.write_text(json.dumps(req["descriptor"]), encoding="utf-8")

    def execute(self, req: dict) -> dict:
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(self.spans_path), *req["argv"]]
        else:
            cmd = [sys.executable, "-m", "xdoily.cli", *req["argv"]]
        return run_child(cmd, self.env)

    def take_spans(self) -> dict | None:
        """Spans the last traced request's process wrote (see cli_traced.py),
        or None when it died before writing them."""
        if not self.spans_path.exists():
            return None
        cols = json.loads(self.spans_path.read_text(encoding="utf-8"))
        self.spans_path.unlink()
        return cols

    def check(self, req: dict, result: dict) -> Outcome:
        code, out = result["code"], result["stdout"]
        info = {}
        if code != req["expect"]:
            return Outcome(False, f"{req['kind']}: exit {code}, expected {req['expect']}: "
                           f"{result['stderr'][-300:]!r}")
        kind = req["kind"]
        text = out.decode("utf-8")
        if kind == "catalog_table":
            if not re.search(r"^total\s+31$", text, re.MULTILINE):
                return Outcome(False, "catalog: census does not total 31")
        elif kind == "catalog_json":
            if len(json.loads(text)["hyperplanes"]) != 31:
                return Outcome(False, "catalog json: census does not total 31")
        elif kind == "analyze_off_hyperplane":
            pass
        elif kind.startswith("analyze"):
            payload = json.loads(text)
            verdict = "invalid" if not payload["valid"] else (
                "entangled" if payload["entangled"] else "separable")
            expected = xd.classify(state_from_descriptor(req["descriptor"])).verdict
            if verdict != expected:
                return Outcome(False, f"{kind}: CLI says {verdict}, in-process classify {expected}")
        elif kind == "curve":
            if "regime" not in json.loads(text):
                return Outcome(False, "curve: no regime in the output")
        elif kind == "region":
            lines = text.split("\n")
            if lines[0] != "beta1,beta2,class" or len(lines) != self.region_resolution**2 + 2:
                return Outcome(False, "region: expected header and res^2 rows")
        else:
            checks = [line for line in text.splitlines() if line.startswith("[")]
            info["checks"] = len(checks)
            info["checks_failed"] = sum(1 for line in checks if not line.endswith("... ok"))
            if not text.rstrip().endswith("result: PASS"):
                return Outcome(False, "verify geometry did not pass", info)
        return Outcome(True, info=info)


def run_child(cmd: list[str], env: dict) -> dict:
    """Run a process to completion; returns its exit code, output and peak RSS.

    os.wait4 reaps the child and reports that one child's own maximum
    resident set, which RUSAGE_CHILDREN would fold into a running maximum.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "stdout": out, "stderr": err.decode("utf-8", "replace"),
            "maxrss_kib": usage.ru_maxrss}


WORKLOADS = {"verify_sweep": VerifySweep, "grid_scan": GridScan, "cli_cold": CliCold}
