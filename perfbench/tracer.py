"""Span tracing of xdoily's public functions, installed from outside the package.

`from .x import f` copies the binding of f into every importing module, so a
wrapper is patched into each loaded `xdoily` module namespace that holds the
original function object.  Spans are kept in memory as parallel columns
(name id, parent span, request id, start, end) and written out once the run
ends; self times are derived from them afterwards.

Per-coefficient helpers such as StateCoeffs.get are deliberately not wrapped:
they run millions of times per request and the wrapper would dominate.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, public function, span name).  Several functions may share a span
# name; their calls and self times are summed under it.
SPANS = (
    ("states", "group1_state", "states.ctor"),
    ("states", "group2_state", "states.ctor"),
    ("states", "hyperplane_state", "states.ctor"),
    ("states", "build_density_matrix", "states.density"),
    ("states", "partial_transpose", "states.pt"),
    ("states", "extract_group1_params", "states.extract"),
    ("states", "extract_group2_params", "states.extract"),
    ("spectra", "eig_hermitian4", "spectra.eig"),
    ("spectra", "classify", "spectra.classify"),
    ("spectra", "group1_eigenvalues", "spectra.closed"),
    ("spectra", "group2_eigenvalues", "spectra.closed"),
    ("spectra", "detect_type", "spectra.detect"),
    ("regions", "classify_by_region", "regions.classify"),
    ("regions", "sample_region", "regions.sample"),
    ("regions", "region_csv", "regions.csv"),
    ("regions", "sign_rule_fuzz", "regions.sign_rule"),
    ("bell", "bell_m_closed", "bell.closed"),
    ("bell", "bell_m_oracle", "bell.oracle"),
    ("bell", "heatmap_m", "bell.heatmap"),
    ("bell", "heatmap_csv", "bell.csv"),
    ("verify", "geometry_suite", "verify.geometry"),
    ("verify", "spectral_suite", "verify.spectral"),
    ("verify", "region_suite", "verify.region"),
    ("verify", "nonlocality_suite", "verify.nonlocality"),
)


def _count_valid_report(counters, report):
    counters["spectra.classify.valid"] = counters.get("spectra.classify.valid", 0) + bool(report.valid)


def _count_valid_class(counters, cls):
    counters["regions.classify.valid"] = counters.get("regions.classify.valid", 0) + (cls != "invalid")


def _count_bytes(key):
    def tally(counters, text):
        counters[key] = counters.get(key, 0) + len(text.encode())

    return tally


# Outcome counters taken from a span's return value, for the useful-work
# ratios and the CSV sizes.
TALLIES = {
    "spectra.classify": _count_valid_report,
    "regions.classify": _count_valid_class,
    "regions.csv": _count_bytes("regions.csv.bytes"),
    "bell.csv": _count_bytes("bell.csv.bytes"),
}


class Tracer:
    """In-memory span store; spans are recorded only while `active` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.active = False
        self.request_id = -1
        self._stack: list[int] = []

    def name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn, span: str):
        nid = self.name_id(span)
        tally = TALLIES.get(span)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                tally(self.counters, result)
            return result

        return traced

    def install(self):
        """Patch every loaded xdoily namespace; returns a function that undoes it."""
        modules = [m for n, m in sys.modules.items() if n == "xdoily" or n.startswith("xdoily.")]
        patches = []
        for module, fname, span in SPANS:
            original = getattr(sys.modules[f"xdoily.{module}"], fname)
            wrapped = self.wrap(original, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

        def uninstall():
            for mod, attr, original in patches:
                setattr(mod, attr, original)

        return uninstall

    def columns(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }

    def dump_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.columns(), fh)

    def merge(self, cols: dict, request_id: int) -> None:
        """Append spans recorded by another process under one request id."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in cols["names"]]
        self.name.extend(remap[i] for i in cols["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in cols["parent"])
        self.request.extend(request_id for _ in cols["name"])
        self.start.extend(cols["start"])
        self.end.extend(cols["end"])
        for key, value in cols["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so self times never overlap.
        """
        import numpy as np

        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        ids = np.asarray(self.name, dtype=np.int64)
        k = len(self.names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            request=np.asarray(self.request),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
