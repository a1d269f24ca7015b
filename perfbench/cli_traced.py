"""Run one `xdoily` CLI command with span tracing on.

    PYTHONPATH=src python3 perfbench/cli_traced.py SPANS_JSON VERB [ARGS...]

Behaves like `python3 -m xdoily.cli VERB [ARGS...]` (same stdout and exit
code) and writes the spans recorded in the process to SPANS_JSON.
"""

import sys

from tracer import Tracer

import xdoily.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = xdoily.cli.main(sys.argv[2:])
    finally:
        tracer.active = False
        tracer.dump_json(sys.argv[1])
    sys.exit(code)
