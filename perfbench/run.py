#!/usr/bin/env python3
"""xdoily benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): verify_sweep, grid_scan, cli_cold.  Run from
any directory; the program is imported from src/ of the checkout holding
this file, and child interpreters get src/ on PYTHONPATH.

--trace 0 times the workload untraced for --seconds and reports the
end-to-end metrics.  --trace 1 replays a fixed number of requests twice,
untraced and then with spans around the public functions of every layer,
and reports the per-layer metrics and the tracing overhead.  Either way the
set-up cost is first measured in fresh interpreters, every request's output
is checked outside the timed section, the full record goes to
.perfbench_out/, and the last line of stdout is one JSON object:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

End-to-end times are reported at reference speed.  A shared VM's speed drifts by a
quarter or more over minutes, which no amount of averaging inside one run
removes.  So a fixed pure-Python loop (`reference_ms`, no code of xdoily) is
timed right before and right after every request and every set-up probe,
and each wall time is scaled by REF_NOMINAL_MS over the mean of those two
reference times: the time the machine would have taken at the speed where
the loop takes REF_NOMINAL_MS.  Raw wall times are kept in the record, and
`machine.ref_ms` reports the loop's median time in a traced run.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported here or in any child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: span-derived ones are totals over the traced requests.
PER_LAYER = {
    "gf2.lines_cold_ms": "ms",
    "hyperplanes.symplectic_cold_ms": "ms",
    "hyperplanes.enumerate_cold_ms": "ms",
    "states.ctor_calls": "count",
    "states.ctor_self_s": "s",
    "states.density_calls": "count",
    "states.density_self_s": "s",
    "states.pt_calls": "count",
    "states.pt_self_s": "s",
    "states.extract_calls": "count",
    "states.extract_self_s": "s",
    "spectra.detect_types_cold_ms": "ms",
    "spectra.detect_calls": "count",
    "spectra.detect_self_s": "s",
    "spectra.eig_calls": "count",
    "spectra.eig_self_s": "s",
    "spectra.classify_calls": "count",
    "spectra.classify_self_s": "s",
    "spectra.valid_ratio": "ratio",
    "spectra.closed_calls": "count",
    "spectra.closed_self_s": "s",
    "regions.classify_calls": "count",
    "regions.classify_self_s": "s",
    "regions.valid_ratio": "ratio",
    "regions.sample_self_s": "s",
    "regions.csv_s": "s",
    "regions.csv_bytes": "bytes",
    "regions.sign_rule_s": "s",
    "bell.closed_calls": "count",
    "bell.closed_self_s": "s",
    "bell.oracle_calls": "count",
    "bell.oracle_self_s": "s",
    "bell.heatmap_self_s": "s",
    "bell.csv_s": "s",
    "bell.csv_bytes": "bytes",
    "verify.geometry_s": "s",
    "verify.spectral_s": "s",
    "verify.region_s": "s",
    "verify.nonlocality_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "verify.spectral_max_err": "abs_err",
    "verify.nonlocality_max_err": "abs_err",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.catalog_ms": "ms",
    "cli.analyze_ms": "ms",
    "cli.curve_ms": "ms",
    "cli.region_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.requests": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.self_s_sum": "s",
    "trace.untraced_req_per_s": "1/s",
    "trace.traced_req_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "machine.ref_ms": "ms",
}

# Requests a traced run replays: whole cycles of the grid_scan and cli_cold
# mixes, each about ten seconds untraced on a 2-vCPU VM.
TRACE_REQUESTS = {"verify_sweep": 8, "grid_scan": 12, "cli_cold": 24}

# Fixed inputs for the per-verb CLI timings of a traced run.
PROBE_DESCRIPTOR = {"hyperplane": {"kind": "perp", "id": "ZZ"},
                    "coefficients": {"XX": 0.5, "YY": -0.5, "ZZ": 0.5}}
CLI_PROBES = {
    "cli.catalog_ms": ["catalog"],
    "cli.analyze_ms": ["analyze", str(OUT / "probe_descriptor.json")],
    "cli.curve_ms": ["curve", "--k", "1.0", "--beta0", "0.45", "--c", "0.6,0.0"],
    "cli.region_ms": ["region", "--beta0", "0.3", "--c", "0.2,0.1", "--resolution", "40"],
    "cli.verify_ms": ["verify", "geometry"],
}


# The reference loop's time on the 2-vCPU VM the baseline was taken on; times
# are scaled to the machine speed at which the loop takes this long.
REF_NOMINAL_MS = 5.0
REF_REPEATS = 3


def _reference_loop() -> int:
    d = {}
    s = 0
    for i in range(30000):
        d[i & 1023] = s
        s = (s + i * 7) % 1000003
    return s


def reference_ms() -> float:
    """Best of REF_REPEATS timings of a fixed pure-Python loop, in ms."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def at_reference_speed(wall: float, ref_before: float, ref_after: float) -> float:
    """A wall time scaled to the machine speed at which the loop takes REF_NOMINAL_MS."""
    return wall * REF_NOMINAL_MS * 2.0 / (ref_before + ref_after)


class ProbeError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def probe(kind: str, env: dict) -> dict:
    """One fresh-interpreter cold-path probe (see probe.py), with the
    reference times taken right before and after it."""
    ref_before = reference_ms()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), kind], env=env,
                          capture_output=True, text=True, timeout=120)
    ref_after = reference_ms()
    if proc.returncode != 0:
        raise ProbeError(f"probe {kind} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["ref_ms"] = [ref_before, ref_after]
    return result


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q (0..100) of a nonempty sample."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """p90 from 100 requests on; below that the highest whole percentile that
    leaves ten samples beyond it, and never below the median."""
    if n >= 100:
        return 90
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


class Phase:
    """Requests of one pass: latency, outcome and kind of each."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at reference speed
        self.refs: list[tuple[float, float]] = []
        self.outcomes = []
        self.kinds: list[str] = []
        self.child_maxrss_kib = 0

    @property
    def n(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def req_per_s(self) -> float:
        return self.n / self.busy_s

    @property
    def scaled_req_per_s(self) -> float:
        return self.n / sum(self.scaled)


def run_requests(wl, seconds: float, limit=None, tracer=None) -> Phase:
    """Closed loop: issue, time and check requests 0, 1, ... of the workload.

    Stops once the timed busy time reaches `seconds` or after `limit`
    requests.  Only `execute` is inside the timed section; the reference
    loop runs right before and right after it.
    """
    from workloads import Outcome

    phase = Phase()
    i = 0
    while phase.busy_s < seconds and (limit is None or i < limit):
        req = wl.request(i)
        wl.prepare(req)
        error = None
        ref_before = reference_ms()
        if tracer is not None and wl.in_process:
            tracer.request_id = i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            output = wl.execute(req)
        except Exception:
            output, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        ref_after = reference_ms()
        if error is None:
            try:
                outcome = wl.check(req, output)
            except Exception:
                outcome = Outcome(False, "check raised: " + traceback.format_exc(limit=3))
        else:
            outcome = Outcome(False, "request raised: " + error)
        if output is not None and not wl.in_process:
            phase.child_maxrss_kib = max(phase.child_maxrss_kib, output["maxrss_kib"])
            spans = wl.take_spans() if tracer is not None else None
            if spans is not None:
                tracer.merge(spans, i)
        del output
        phase.latencies.append(latency)
        phase.scaled.append(at_reference_speed(latency, ref_before, ref_after))
        phase.refs.append((ref_before, ref_after))
        phase.outcomes.append(outcome)
        phase.kinds.append(req["kind"])
        i += 1
    return phase


def end_to_end_metrics(phase: Phase, setup_s: float, wl) -> dict:
    ms = [x * 1000.0 for x in phase.scaled]
    if wl.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = phase.child_maxrss_kib
    return {
        "setup_s": setup_s,
        "req_per_s": phase.scaled_req_per_s,
        "req_p50_ms": percentile(ms, 50),
        "req_tail_ms": percentile(ms, tail_percentile(phase.n)),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def cli_probe_metrics(env: dict, repeats: int) -> dict:
    from workloads import run_child

    (OUT / "probe_descriptor.json").write_text(json.dumps(PROBE_DESCRIPTOR), encoding="utf-8")
    commands = {"cli.python_start_ms": [sys.executable, "-c", "pass"]}
    commands.update({k: [sys.executable, "-m", "xdoily.cli", *argv] for k, argv in CLI_PROBES.items()})
    out = {}
    stdout_bytes = 0
    for key, cmd in commands.items():
        walls = []
        for r in range(repeats):
            t0 = time.perf_counter()
            result = run_child(cmd, env)
            walls.append((time.perf_counter() - t0) * 1000.0)
            if result["code"] != 0:
                raise ProbeError(f"{key} probe exited {result['code']}: {result['stderr'][-300:]}")
            if r == 0:
                stdout_bytes += len(result["stdout"])
        out[key] = statistics.median(walls)
    out["cli.stdout_bytes"] = stdout_bytes
    return out


def layer_metrics(tracer, infos, cold: dict, setups: list, cli: dict,
                  untraced: Phase, traced: Phase) -> dict:
    from workloads import MARGIN_BOUNDS

    totals = tracer.layer_totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name, field):
        return totals.get(name, zero)[field]

    def ratio(key, name):
        calls = span(name, "calls")
        return tracer.counters.get(key, 0) / calls if calls else 0.0

    m = {
        "gf2.lines_cold_ms": statistics.median(c["lines_s"] for c in cold) * 1000.0,
        "hyperplanes.symplectic_cold_ms": statistics.median(c["symplectic_s"] for c in cold) * 1000.0,
        "hyperplanes.enumerate_cold_ms": statistics.median(s["enumerate_s"] for s in setups) * 1000.0,
        "spectra.detect_types_cold_ms": statistics.median(s["detect_s"] for s in setups) * 1000.0,
    }
    for name in ("states.ctor", "states.density", "states.pt", "states.extract", "spectra.detect",
                 "spectra.eig", "spectra.classify", "spectra.closed", "regions.classify",
                 "bell.closed", "bell.oracle"):
        m[f"{name}_calls"] = span(name, "calls")
        m[f"{name}_self_s"] = span(name, "self_s")
    m["spectra.valid_ratio"] = ratio("spectra.classify.valid", "spectra.classify")
    m["regions.valid_ratio"] = ratio("regions.classify.valid", "regions.classify")
    m["regions.sample_self_s"] = span("regions.sample", "self_s")
    m["regions.csv_s"] = span("regions.csv", "total_s")
    m["regions.csv_bytes"] = tracer.counters.get("regions.csv.bytes", 0)
    m["regions.sign_rule_s"] = span("regions.sign_rule", "total_s")
    m["bell.heatmap_self_s"] = span("bell.heatmap", "self_s")
    m["bell.csv_s"] = span("bell.csv", "total_s")
    m["bell.csv_bytes"] = tracer.counters.get("bell.csv.bytes", 0)
    for suite in ("geometry", "spectral", "region", "nonlocality"):
        m[f"verify.{suite}_s"] = span(f"verify.{suite}", "total_s")
    m["verify.checks"] = sum(i.get("checks", 0) for i in infos)
    m["verify.checks_failed"] = sum(i.get("checks_failed", 0) for i in infos)
    for key in MARGIN_BOUNDS:
        m[f"verify.{key}"] = max((i[key] for i in infos if key in i), default=0.0)
    m["cli.import_ms"] = statistics.median(s["import_s"] for s in setups) * 1000.0
    m.update(cli)
    m["trace.requests"] = traced.n
    m["trace.spans"] = len(tracer.start)
    m["trace.wall_s"] = traced.busy_s
    m["trace.self_s_sum"] = sum(v for k, v in m.items() if k.endswith("_self_s"))
    m["trace.untraced_req_per_s"] = untraced.scaled_req_per_s
    m["trace.traced_req_per_s"] = traced.scaled_req_per_s
    m["trace.overhead_ratio"] = untraced.scaled_req_per_s / traced.scaled_req_per_s
    m["machine.ref_ms"] = statistics.median(r for pair in untraced.refs for r in pair)
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain source checkout; source_sha256 identifies the code
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_name():
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        return None


def run_record(args) -> dict:
    import numpy

    uname = os.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "ref_nominal_ms": REF_NOMINAL_MS,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify_sweep", "grid_scan", "cli_cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny request sizes and single probes, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xdoily" / "__init__.py").is_file():
        print(f"perfbench: no xdoily package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = child_env()
    repeats = 1 if args.tiny else 7
    try:
        setups = [probe("setup", env) for _ in range(repeats)]
    except ProbeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(at_reference_speed(s["setup_s"], *s["ref_ms"]) for s in setups)

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, args.tiny, env, OUT) if cls is workloads.CliCold else cls(args.seed, args.tiny)
    wl.warm_up()
    record = {"run": run_record(args), "setup_probes": setups}

    if args.trace == 0:
        phase = run_requests(wl, args.seconds)
        phases = [phase]
        metrics = end_to_end_metrics(phase, setup_s, wl)
        units = END_TO_END
        record["req_tail_percentile"] = tail_percentile(phase.n)
    else:
        from tracer import Tracer

        untraced = run_requests(wl, args.seconds, limit=TRACE_REQUESTS[args.workload])
        tracer = Tracer()
        uninstall = tracer.install()
        wl.traced = True  # cli_cold: requests run through cli_traced.py from now on
        try:
            traced = run_requests(wl, math.inf, limit=untraced.n, tracer=tracer)
        finally:
            uninstall()
        phases = [untraced, traced]
        probe_repeats = 1 if args.tiny else 3
        try:
            cold = [probe("cold", env) for _ in range(probe_repeats)]
            cli = cli_probe_metrics(env, probe_repeats)
        except ProbeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        infos = [o.info for o in traced.outcomes]
        metrics = layer_metrics(tracer, infos, cold, setups, cli, untraced, traced)
        units = PER_LAYER
        spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.save(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["margin_bounds"] = workloads.MARGIN_BOUNDS

    attempted = sum(p.n for p in phases)
    failed = sum(p.failed for p in phases)
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record["fail_ratio"] = {"failed": failed, "attempted": attempted, "value": failed / attempted}
    record["requests"] = [
        {"pass": pi, "kind": kind, "latency_s": lat, "scaled_s": scaled, "ref_ms": ref,
         "ok": o.ok, "error": o.error, "info": o.info}
        for pi, p in enumerate(phases)
        for kind, lat, scaled, ref, o in zip(p.kinds, p.latencies, p.scaled, p.refs, p.outcomes)
    ]
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {record['run']['nproc']}  python {record['run']['python']}  numpy {record['run']['numpy']}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for p in phases:
        for kind, o in zip(p.kinds, p.outcomes):
            if not o.ok:
                print(f"FAILED {kind}: {o.error}")
    if args.trace == 0:
        print(f"req_tail_ms is p{record['req_tail_percentile']} of {phase.n} requests")
    else:
        for key, bound in workloads.MARGIN_BOUNDS.items():
            print(f"verify.{key} {metrics['verify.' + key]:.3e} (bound {bound:.0e})")
    for key, unit in units.items():
        value = metrics.get(key)
        print(f"{key:34s} {value!r:>24} {unit}")
    print(f"record: {result_file.relative_to(ROOT)}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
