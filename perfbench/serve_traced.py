"""``repro serve`` with the benchmark's span recorders installed.

Usage: ``python perfbench/serve_traced.py OUT.json serve [serve args]``

Runs the service exactly as ``python -m repro serve`` does, after
wrapping every layer's entry points (see ``tracing.install``).  On
SIGINT the server shuts down as usual; then this process writes its
spans and the engine's session telemetry (``SESSION.records``) to
``OUT.json`` for the benchmark to merge into the traced run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main(argv) -> int:
    out_path, serve_args = argv[0], argv[1:]
    from repro import cli
    from repro.engine.telemetry import SESSION

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(serve_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": tracer.spans,
                       "records": [r.to_dict() for r in SESSION.records]},
                      handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
