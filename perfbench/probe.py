"""Cold-path timings taken in a fresh interpreter, so every lru_cache and the
family-type cache start empty.  Prints one JSON object.

    PYTHONPATH=src python3 perfbench/probe.py setup   # import, enumerate, detect
    PYTHONPATH=src python3 perfbench/probe.py cold    # GF(2) lines, Sp(4,2) maps

`setup` times what a fresh process pays before its first request: importing
xdoily, then enumerate_hyperplanes, then detected_types (timed after the
enumeration so it excludes it).  `cold` times the GF(2) line tables and then
symplectic_transformations, before anything has called enumerate_hyperplanes.
"""

import json
import sys
import time


def setup() -> dict:
    t0 = time.perf_counter()
    import xdoily

    t1 = time.perf_counter()
    xdoily.enumerate_hyperplanes()
    t2 = time.perf_counter()
    xdoily.detected_types()
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "enumerate_s": t2 - t1, "detect_s": t3 - t2, "setup_s": t3 - t0}


def cold() -> dict:
    from xdoily import gf2, hyperplanes

    t0 = time.perf_counter()
    gf2.enumerate_lines()
    gf2.isotropic_lines()
    t1 = time.perf_counter()
    hyperplanes.symplectic_transformations()
    t2 = time.perf_counter()
    return {"lines_s": t1 - t0, "symplectic_s": t2 - t1}


if __name__ == "__main__":
    probes = {"setup": setup, "cold": cold}
    if len(sys.argv) != 2 or sys.argv[1] not in probes:
        sys.exit(f"usage: probe.py {'|'.join(probes)}")
    print(json.dumps(probes[sys.argv[1]]()))
