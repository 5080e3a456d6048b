"""Starts the program's HTTP tier for ``http_tenant`` in its own process.

    python3 perfbench/serve_launcher.py [--trace]

Prints ``{"url": ...}`` once listening, then obeys one command per stdin
line, answering each with one JSON line on stdout:

- ``on`` / ``off``: start / stop recording spans (``--trace`` only); the
  answer carries the registry totals at that moment, so the client can
  charge counters to the traced stretches alone;
- ``report``: peak RSS and, traced, every recorded span;
- ``stop`` (or end of input): shut the tier down and exit.

With ``--trace`` the span wrappers are installed before the server is
built, so every request, shard worker and engine call can be recorded.
"""

from __future__ import annotations

import json
import sys

import harness
import tracing


def _registries(server):
    """The serve tier's registry plus every session's own."""
    registries = [server.instrumentation.registry]
    manager = server.manager
    for shard in manager.describe()["shards"]:
        routed = manager.shard(shard["tenant"], shard["session"])
        if routed is not None:
            registries.append(
                routed.call(lambda service: service.instrumentation.registry)
            )
    return registries


def main(argv) -> int:
    traced = "--trace" in argv
    log = tracing.SpanLog()
    missing = []
    if traced:
        missing = tracing.install(log)
    from repro.serve import AnalysisServer

    server = AnalysisServer(port=0).start()
    _answer({"url": server.url, "missing_targets": missing})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command in ("on", "off"):
                log.enabled = traced and command == "on"
                _answer({"registry": tracing.registry_totals(
                    _registries(server))})
            elif command == "report":
                _answer(
                    {
                        "peak_rss_mb": harness.peak_rss_mb(),
                        "spans": tracing.finished(log),
                    }
                )
            elif command == "stop":
                break
    finally:
        server.stop()
    return 0


def _answer(document) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
