"""The stdlib HTTP front-end over the shard pool.

``AnalysisServer`` binds a :class:`http.server.ThreadingHTTPServer`
(thread per connection, keep-alive HTTP/1.1) in front of a
:class:`~repro.serve.shard.ShardManager`: the HTTP thread does admission
and wire decode/encode only, while every touch of analysis state rides
the target shard's single-writer inbox.  JSON in, JSON out, through the
codecs in :mod:`repro.api.wire` and :mod:`repro.utils.serialization` --
no third-party dependencies anywhere in the tier.

Route map (all bodies JSON)::

    GET  /health                                liveness (always 200)
    GET  /ready                                 503 until every shard worker is live
    GET  /metrics                               serve-tier Prometheus text
    GET  /observability                         serve-tier JSON snapshot
    POST /v1/{t}/sessions                       create: {"name", "services"|"snapshot", ...}
    GET  /v1/{t}/sessions                       list session names
    GET  /v1/{t}/sessions/{s}                   version/size/shard info
    POST /v1/{t}/sessions/{s}/query             one kind-tagged query document
    POST /v1/{t}/sessions/{s}/batch             {"queries": [...]} (one shard plan)
    POST /v1/{t}/sessions/{s}/mutations         one mutation document -> receipt
    GET  /v1/{t}/sessions/{s}/snapshot          snapshot document (with warm results)
    POST /v1/{t}/sessions/{s}/migrate           snapshot/restore onto a fresh shard
    GET  /v1/{t}/sessions/{s}/observability     per-session engine-layer snapshot
    GET  /v1/{t}/sessions/{s}/metrics           per-session Prometheus text
    GET  /v1/{t}/audit?tail=N                   this tenant's audit tail

Error contract: malformed/unknown documents are 400, unknown
sessions/services are 404, session-name collisions are 409, admission
overflow is 429 with ``Retry-After``, and any other failure is a 500.
A negative or non-integer ``Content-Length`` is 400 and closes the
connection, since the request's end is then unknown.  A mutation is
applied exactly once -- the engines are deterministic, so a retry could
only fail again -- and its exception maps through the same table:
``ValueError``/``TypeError`` are 400, ``KeyError`` (e.g. removing an
unknown service) is 404.  Every mutation, rejected ones included,
leaves one audit record, so a failure is never swallowed.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.api.wire import query_from_dict, result_to_dict
from repro.obs import DEFAULT_SECONDS_BUCKETS, Instrumentation, monotonic
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.shard import ServeConfig, ShardManager
from repro.utils.serialization import mutation_from_dict

__all__ = ["AnalysisServer"]


class _Response:
    """One dispatch result: payload + status + content type + headers."""

    __slots__ = ("payload", "status", "content_type", "headers")

    def __init__(
        self,
        payload: Any,
        status: int = 200,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.payload = payload
        self.status = status
        self.content_type = content_type
        self.headers = headers or {}

    def body(self) -> bytes:
        if self.content_type == "application/json":
            return json.dumps(self.payload).encode("utf-8")
        return str(self.payload).encode("utf-8")


class _HTTPError(Exception):
    """Dispatch-level error carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AnalysisServer:
    """Multi-tenant HTTP tier: admission -> shard routing -> codecs.

    ``port=0`` binds an ephemeral port (see :attr:`address`); call
    :meth:`start` to serve on a background thread and :meth:`stop` to
    shut the listener and every shard worker down.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServeConfig] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.instrumentation = (
            instrumentation
            if instrumentation is not None
            else Instrumentation()
        )
        self.manager = ShardManager(
            config=self.config, instrumentation=self.instrumentation
        )
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent_per_tenant,
            max_queue=self.config.max_queue_per_tenant,
            retry_after=self.config.retry_after_seconds,
            instrumentation=self.instrumentation,
        )
        self._requests = self.instrumentation.counter(
            "repro_serve_requests_total",
            "HTTP requests, by tenant ('-' = infrastructure), route, "
            "and status.",
            labels=("tenant", "route", "status"),
        )
        self._latency = self.instrumentation.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency per tenant (admission wait "
            "included).",
            labels=("tenant",),
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        tier = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            server_version = "repro-serve/1"

            def do_GET(self) -> None:
                tier._handle(self, "GET")

            def do_POST(self) -> None:
                tier._handle(self, "POST")

            def log_message(self, format: str, *args: Any) -> None:
                # Request logging goes through the metrics registry and
                # the audit log, not stderr.
                return

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- resolves ephemeral port 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AnalysisServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-listener",
            daemon=True,
        )
        self._thread.start()
        return self

    def join(self) -> None:
        """Block the calling thread until the listener stops."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.manager.close()

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- request handling -------------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        started = monotonic()
        parsed = urllib.parse.urlparse(handler.path)
        parts = [part for part in parsed.path.split("/") if part]
        params = urllib.parse.parse_qs(parsed.query)
        tenant = (
            parts[1] if len(parts) >= 2 and parts[0] == "v1" else None
        )
        route = self._route_name(parts)
        try:
            body = self._read_body(handler)
            if tenant is not None:
                with self.admission.admit(tenant):
                    response = self._dispatch(
                        method, parts, params, body
                    )
            else:
                response = self._dispatch(method, parts, params, body)
        except AdmissionRejected as exc:
            response = _Response(
                {"error": str(exc), "retry_after": exc.retry_after},
                status=429,
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        except _HTTPError as exc:
            response = _Response({"error": str(exc)}, status=exc.status)
        except (ValueError, TypeError) as exc:
            response = _Response({"error": str(exc)}, status=400)
        except KeyError as exc:
            response = _Response({"error": str(exc)}, status=404)
        except TimeoutError as exc:
            response = _Response({"error": str(exc)}, status=504)
        except Exception as exc:
            # Last-resort guard: report the failure to the client (and
            # the metrics) rather than letting the socket thread die.
            response = _Response(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )
        self._send(handler, response)
        label = tenant if tenant is not None else "-"
        self._requests.labels(
            tenant=label, route=route, status=str(response.status)
        ).inc()
        self._latency.labels(tenant=label).observe(
            monotonic() - started
        )

    @staticmethod
    def _route_name(parts) -> str:
        if not parts:
            return "root"
        if parts[0] != "v1":
            return parts[0]
        if len(parts) >= 3 and parts[2] == "sessions":
            return (
                f"sessions/{parts[4]}" if len(parts) >= 5 else "sessions"
            )
        if len(parts) >= 3:
            return parts[2]
        return "v1"

    @staticmethod
    def _read_body(handler: BaseHTTPRequestHandler) -> Optional[Dict]:
        declared = handler.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # Where this body ends is unknowable, so its bytes cannot be
            # skipped: answer and close rather than parse them as the
            # next request (or block in ``read(-1)`` until EOF).
            handler.close_connection = True
            raise _HTTPError(400, f"invalid Content-Length {declared!r}")
        if length == 0:
            return None
        raw = handler.rfile.read(length)
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"request body is not JSON: {exc}")
        if not isinstance(document, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return document

    @staticmethod
    def _send(
        handler: BaseHTTPRequestHandler, response: _Response
    ) -> None:
        # One write per response.  Written as two (head, then body), the
        # body waits under Nagle's algorithm for the client's ACK of the
        # head, which a keep-alive client delays ~40 ms.
        body = response.body()
        headers = {
            "Server": handler.version_string(),
            "Date": handler.date_time_string(),
            "Content-Type": response.content_type,
            "Content-Length": str(len(body)),
            **response.headers,
        }
        if handler.close_connection:
            headers["Connection"] = "close"
        reason = handler.responses.get(response.status, ("",))[0]
        head = "".join(
            [f"{handler.protocol_version} {response.status} {reason}\r\n"]
            + [f"{name}: {value}\r\n" for name, value in headers.items()]
            + ["\r\n"]
        )
        try:
            handler.wfile.write(head.encode("latin-1") + body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response; the request itself was
            # served (and audited) -- nothing is lost but the reply.
            handler.close_connection = True

    # -- dispatch ----------------------------------------------------------

    def _dispatch(
        self, method: str, parts, params, body
    ) -> _Response:
        if not parts:
            raise _HTTPError(404, "no route")
        head = parts[0]
        if head == "health" and method == "GET":
            return _Response({"status": "ok"})
        if head == "ready" and method == "GET":
            ready = self.manager.ready()
            return _Response(
                {"ready": ready}, status=200 if ready else 503
            )
        if head == "metrics" and method == "GET":
            return _Response(
                self.instrumentation.prometheus(),
                content_type="text/plain; version=0.0.4",
            )
        if head == "observability" and method == "GET":
            snapshot = self.instrumentation.snapshot()
            snapshot["shards"] = self.manager.describe()["shards"]
            snapshot["admission"] = {
                tenant: {"active": active, "waiting": waiting}
                for tenant, (active, waiting) in
                self.admission.depths().items()
            }
            return _Response(snapshot)
        if head == "v1" and len(parts) >= 3:
            return self._dispatch_tenant(method, parts, params, body)
        raise _HTTPError(404, f"no route for {'/'.join(parts)!r}")

    def _dispatch_tenant(
        self, method: str, parts, params, body
    ) -> _Response:
        tenant, area = parts[1], parts[2]
        rest = parts[3:]
        if area == "sessions":
            return self._dispatch_sessions(
                method, tenant, rest, params, body
            )
        if area == "audit" and method == "GET" and not rest:
            limit = int(params.get("tail", ["100"])[0])
            return _Response(
                {"entries": self.manager.audit.tail(tenant, limit)}
            )
        raise _HTTPError(404, f"no route for {'/'.join(parts)!r}")

    def _dispatch_sessions(
        self, method: str, tenant: str, rest, params, body
    ) -> _Response:
        if not rest:
            if method == "GET":
                return _Response(
                    {"sessions": self.manager.sessions(tenant)}
                )
            if method == "POST":
                return self._create_session(tenant, body)
            raise _HTTPError(405, f"{method} not allowed on sessions")
        name = rest[0]
        sub = rest[1] if len(rest) > 1 else None
        shard = self.manager.shard(tenant, name)
        if shard is None:
            raise _HTTPError(
                404, f"tenant {tenant!r} has no session {name!r}"
            )
        if sub is None and method == "GET":
            return _Response(shard.info())
        if sub == "query" and method == "POST":
            if body is None:
                raise _HTTPError(400, "query body required")
            query = query_from_dict(body)
            (result,) = shard.execute((query,))
            return _Response(result_to_dict(result))
        if sub == "batch" and method == "POST":
            if body is None or "queries" not in body:
                raise _HTTPError(400, "body must carry 'queries'")
            queries = tuple(
                query_from_dict(entry) for entry in body["queries"]
            )
            results = shard.execute(queries)
            return _Response(
                {"results": [result_to_dict(r) for r in results]}
            )
        if sub == "mutations" and method == "POST":
            if body is None:
                raise _HTTPError(400, "mutation body required")
            mutation = mutation_from_dict(body)
            receipt = shard.apply(mutation, body)
            return _Response(receipt)
        if sub == "snapshot" and method == "GET":
            return _Response(
                shard.call(lambda service: service.snapshot())
            )
        if sub == "migrate" and method == "POST":
            return _Response(self.manager.migrate(tenant, name))
        if sub == "observability" and method == "GET":
            return _Response(
                shard.call(
                    lambda service: service.observability_snapshot()
                )
            )
        if sub == "metrics" and method == "GET":
            return _Response(
                shard.call(
                    lambda service: service.prometheus_metrics()
                ),
                content_type="text/plain; version=0.0.4",
            )
        raise _HTTPError(
            404, f"no session route {sub!r} for method {method}"
        )

    def _create_session(self, tenant: str, body) -> _Response:
        if body is None or "name" not in body:
            raise _HTTPError(400, "body must carry a session 'name'")
        try:
            created = self.manager.create_session(
                tenant,
                body["name"],
                services=body.get("services"),
                seed=body.get("seed", 2021),
                attackers=body.get("attackers"),
                snapshot=body.get("snapshot"),
            )
        except KeyError as exc:
            raise _HTTPError(409, str(exc))
        return _Response(created, status=201)
