"""CLI entry point: ``python -m repro.serve --port 8400``.

Boots one :class:`~repro.serve.server.AnalysisServer` in the
foreground and serves until interrupted.  Every knob on
:class:`~repro.serve.shard.ServeConfig` that matters for a standalone
deployment is exposed as a flag; ``--port 0`` binds an ephemeral port
and prints the resolved address either way.
"""

from __future__ import annotations

import argparse

from repro.serve.server import AnalysisServer
from repro.serve.shard import ServeConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the analysis facade as a multi-tenant HTTP tier.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8400, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--max-concurrent-per-tenant",
        type=int,
        default=ServeConfig.max_concurrent_per_tenant,
    )
    parser.add_argument(
        "--max-queue-per-tenant",
        type=int,
        default=ServeConfig.max_queue_per_tenant,
    )
    parser.add_argument(
        "--audit-path",
        default=None,
        help="NDJSON audit log destination (default: in-memory ring only)",
    )
    return parser


def main(argv=None) -> int:
    options = build_parser().parse_args(argv)
    config = ServeConfig(
        max_concurrent_per_tenant=options.max_concurrent_per_tenant,
        max_queue_per_tenant=options.max_queue_per_tenant,
        audit_path=options.audit_path,
    )
    server = AnalysisServer(
        host=options.host, port=options.port, config=config
    )
    server.start()
    print(f"serving on {server.url} (Ctrl-C to stop)", flush=True)
    try:
        server.join()
    except KeyboardInterrupt:  # noqa: Ctrl-C is the intended shutdown path
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
