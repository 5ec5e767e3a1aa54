"""Start ``repro-serve`` the way the benchmark needs it.

Usage: ``python3 perfbench/serve_launch.py SPEC.json [repro-serve args]``
from the checkout root.

Installs the seeded suite (and, for a traced rep, the layer wrappers)
and then runs the real ``repro-serve`` entry point with the remaining
arguments.  On SIGINT the server shuts down as it does for a user; the
launcher then writes its spans.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def main(argv: list) -> int:
    # A process started in the background inherits SIGINT ignored; the
    # benchmark stops the server with SIGINT, as a user at a terminal does.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with open(argv[0], encoding="utf-8") as stream:
        spec = json.load(stream)
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro.service import cli

    import workloads

    workloads.install_suite(spec["suite"])
    tracer = None
    if spec.get("trace_dir"):
        import tracing

        tracer = tracing.install(Path(spec["trace_dir"]))
        make_server = cli.make_server

        def traced_make_server(*args, **kwargs):
            server = make_server(*args, **kwargs)
            tracing.trace_request_handler(server.RequestHandlerClass)
            return server

        cli.make_server = traced_make_server
    try:
        status = cli.main(argv[1:])
    finally:
        if tracer is not None:
            tracer.flush()
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
