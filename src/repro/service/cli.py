"""``repro-serve`` — run the experiment service.

Usage::

    repro-serve --port 8321 --store /tmp/repro-store --jobs 4
    curl -X POST localhost:8321/v1/sweeps \\
         -d '{"experiment": "fig1", "stride": 27, "instructions": 800}'
    curl localhost:8321/v1/figures/fig1?stride=27&instructions=800
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Optional, Sequence

from repro import obs
from repro.cliargs import non_negative_int, positive_float
from repro.faults.retry import RetryPolicy
from repro.obs import logutil
from repro.service.fleet import Fleet
from repro.service.http import make_server
from repro.service.store import ArtifactStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the paper's figures and tables over HTTP.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port (0 = pick a free port; default: 8321)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "artifact store directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro — shared with repro-experiment)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=non_negative_int,
        default=1,
        help="worker processes per sweep (0 = all cores; default: 1)",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=1,
        help="extra attempts per failing task (default: 1)",
    )
    parser.add_argument(
        "--task-timeout",
        type=positive_float,
        default=None,
        help="per-task wall-clock bound in seconds",
    )
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-serve", args)
    store = ArtifactStore(args.store)
    fleet = Fleet(
        store,
        jobs=None if args.jobs == 0 else args.jobs,
        retry_policy=RetryPolicy(attempts=1 + args.retries),
        task_timeout=args.task_timeout,
    )
    server = make_server(args.host, args.port, fleet)
    host, port = server.server_address[:2]
    # A background start inherits SIGINT ignored: SIGINT and SIGTERM both
    # raise, to stop through ``finally`` (``server.shutdown()`` here would
    # wait forever on ``serve_forever``, which runs on this thread).
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    try:
        print(
            f"[repro-serve listening on http://{host}:{port} "
            f"store={store.root} jobs={args.jobs or 'all'}]",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("[repro-serve shutting down]", file=sys.stderr)
    finally:
        server.service.stop()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
