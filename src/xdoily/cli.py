"""Command-line front end.

Verbs: catalog, analyze, region, heatmap, curve, verify.  Exit codes follow
a sysexits-style split: 0 success, 1 verification failure, 2 I/O failure,
3 internal inconsistency, 64 usage error, 65 unparsable or invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .bell import bell_m_oracle, constant_m_curve, heatmap_csv, heatmap_m
from .hyperplanes import catalog_table, hyperplane_census, hyperplane_records
from .regions import classify_by_region, region_csv, region_params_for_state, sample_region
from .spectra import classify
from .states import StateDescriptorError, state_from_descriptor
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_IO = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 64
EXIT_DATA = 65


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token with a leading minus for an option unless it
        # is a plain decimal; widen that to anything starting like a number,
        # so "--beta0 -1e-3" and "--c -0.3,0.4" parse.  No option of this
        # parser starts with a digit, so none is shadowed.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _point_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected x,y got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1])


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _resolution(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("resolution must be at least 2")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="xdoily", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"xdoily {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    p = sub.add_parser("catalog", help="Fano-plane table and hyperplane census")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", help="write to this path instead of stdout")

    p = sub.add_parser("analyze", help="classify a state descriptor file")
    p.add_argument("state_file", help="JSON state descriptor")
    p.add_argument("--out")

    p = sub.add_parser("region", help="validity/separability/entanglement grid as CSV")
    p.add_argument("--beta0", type=_finite_float, required=True)
    p.add_argument("--c", type=_point_pair, required=True, metavar="B4,B3",
                   help="the point C = (beta4, beta3)")
    p.add_argument("--type", type=int, choices=(1, 2), default=1, dest="t")
    p.add_argument("--resolution", type=_resolution, default=100)
    p.add_argument("--out")

    p = sub.add_parser("heatmap", help="Bell-measure grid over the validity region as CSV")
    p.add_argument("--beta0", type=_finite_float, required=True)
    p.add_argument("--c", type=_point_pair, required=True, metavar="B4,B3")
    p.add_argument("--type", type=int, choices=(1, 2), default=1, dest="t")
    p.add_argument("--resolution", type=_resolution, default=100)
    p.add_argument("--out")

    p = sub.add_parser("curve", help="constant-measure circle/ellipse data as JSON")
    p.add_argument("--k", type=_finite_float, required=True)
    p.add_argument("--beta0", type=_finite_float, required=True)
    p.add_argument("--c", type=_point_pair, required=True, metavar="B4,B3")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("suite", nargs="?", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--draws", type=_positive_int, default=10000)
    p.add_argument("--out")
    return parser


class NonFiniteResult(ValueError):
    """A result to be printed as JSON holds NaN or an infinity."""


def _json_text(payload) -> str:
    """Strict JSON: a non-finite number is an error, never a NaN token."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteResult("the result holds a non-finite number") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_catalog(args) -> int:
    if args.format == "table":
        perps, grids, ovoids = hyperplane_census()
        text = catalog_table()
        text += "\n".join(
            [
                "",
                "Hyperplane census of W(3,2)",
                f"perp-sets {perps:>3}",
                f"grids     {grids:>3}",
                f"ovoids    {ovoids:>3}",
                f"total     {perps + grids + ovoids:>3}",
            ]
        ) + "\n"
    else:
        from .hyperplanes import catalog_rows

        text = _json_text({"fano_planes": catalog_rows(), "hyperplanes": hyperplane_records()})
    _emit(text, args.out)
    return EXIT_OK


def _unique_keys(pairs) -> dict:
    """JSON object hook: a repeated key is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise StateDescriptorError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _run_analyze(args) -> int:
    with open(args.state_file, "r", encoding="utf-8") as fh:
        descriptor = json.load(fh, object_pairs_hook=_unique_keys)
    state = state_from_descriptor(descriptor)
    # Huge coefficients overflow to non-finite results, which _json_text
    # reports as one line with EXIT_DATA; numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        report = classify(state)
        m_value = bell_m_oracle(state.coeffs.beta)
        params = region_params_for_state(state)
        region = classify_by_region(params) if params is not None else None
    if region is not None and region != report.verdict:
        sys.stderr.write(
            f"internal inconsistency: disc route says {region}, "
            f"spectral route says {report.verdict}\n"
        )
        return EXIT_INCONSISTENT
    payload = report.to_json()
    payload["m_value"] = m_value
    payload["region_classification"] = region
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _run_region(args) -> int:
    beta4, beta3 = args.c
    rows = sample_region(args.beta0, beta3, beta4, args.t, args.resolution)
    _emit(region_csv(rows), args.out)
    return EXIT_OK


def _run_heatmap(args) -> int:
    beta4, beta3 = args.c
    rows = heatmap_m(args.beta0, beta3, beta4, args.resolution, t=args.t)
    _emit(heatmap_csv(rows), args.out)
    return EXIT_OK


def _run_curve(args) -> int:
    beta4, beta3 = args.c
    curve = constant_m_curve(args.k, args.beta0, beta3, beta4)
    _emit(_json_text(curve.to_json()), args.out)
    return EXIT_OK


def _run_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    lines = [f"seed: {args.seed}", f"draws: {args.draws}"]
    checks = run_suites(names, seed=args.seed, draws=args.draws)
    failures = [c for c in checks if not c.passed]
    for c in checks:
        mark = "ok" if c.passed else "FAIL"
        lines.append(f"[{c.suite}] {c.name}: {c.detail} ... {mark}")
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} of {len(checks)} checks)"
    lines.append(f"result: {verdict}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "catalog": _run_catalog,
        "analyze": _run_analyze,
        "region": _run_region,
        "heatmap": _run_heatmap,
        "curve": _run_curve,
        "verify": _run_verify,
    }
    try:
        return handlers[args.verb](args)
    except StateDescriptorError as exc:
        sys.stderr.write(f"invalid state descriptor: {exc}\n")
        return EXIT_DATA
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"unparsable JSON: {exc}\n")
        return EXIT_DATA
    except NonFiniteResult as exc:
        sys.stderr.write(f"input out of range: {exc}\n")
        return EXIT_DATA
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
