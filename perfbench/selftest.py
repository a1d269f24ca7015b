#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark; runs in well under a minute.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny sizes, untraced and traced,
and asserts that each run exits 0, prints every metric BENCHMARK.json names
with its unit and nothing else, passes all of its output checks, and keeps
the trace invariants: the per-layer self times sum to no more than the traced
wall time, and grid_scan makes no call into `states` or the eigensolver.
It also asserts that the benchmark refuses to run without the program's
sources.  Exits 1 on the first failed assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["correct"] and result["failed"] == 0, f"{where}: output checks failed\n{proc.stdout[-3000:]}"
    assert result["attempted"] >= 1, f"{where}: no request attempted"
    named = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected, f"{where}: metrics differ from BENCHMARK.json: {printed} != {expected}"
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, f"{where}: {name} = {value!r}"
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["trace.self_s_sum"] <= values["trace.wall_s"], f"{where}: self times exceed wall time"
        if workload == "grid_scan":
            assert values["spectra.eig_calls"] == 0 and values["states.ctor_calls"] == 0, \
                f"{where}: grid_scan reached states or the eigensolver"
        if workload == "verify_sweep":
            assert values["spectra.eig_calls"] > 0 and values["verify.checks"] > 0, f"{where}: empty trace"
    else:
        assert all(v > 0 for v in values.values()), f"{where}: an end-to-end metric is 0: {values}"
    print(f"ok  {where}: {result['attempted']} requests")


def check_refuses_without_sources(workload: str) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark ran without the program's sources"
    assert not proc.stdout.strip(), f"a result was printed without the program's sources: {proc.stdout!r}"
    print("ok  refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                check_run(spec, workload, trace)
        check_refuses_without_sources(spec["workloads"][0]["name"])
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
