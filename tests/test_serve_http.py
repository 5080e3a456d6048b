"""In-process smoke of the multi-tenant HTTP tier (tier-1, no sockets
leave localhost).

One server on an ephemeral port serves every test in this module; tests
isolate by tenant.  Covers the serving tier's acceptance path
end-to-end: query -> mutate -> re-query -> paginate across the mutation,
snapshot migration onto a fresh shard while a second tenant keeps
serving, admission overflow (429 + ``Retry-After``), rejected
mutations with their audit trail, keep-alive latency over one reused
connection, and body-framing errors on a raw socket.  ``make
serve-check`` runs this file together with the shard/audit unit tests.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import AnalysisServer, ServeConfig

#: Small catalog tier: the HTTP contract does not need paper scale.
SERVICES = 24


def _request(url, method="GET", body=None, timeout=30.0):
    """(status, decoded payload, headers) for one HTTP exchange."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    request = urllib.request.Request(
        url, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status = response.status
            raw = response.read()
            head = dict(response.headers)
    except urllib.error.HTTPError as error:
        status = error.code
        raw = error.read()
        head = dict(error.headers)
    if "json" in head.get("Content-Type", ""):
        return status, json.loads(raw), head
    return status, raw.decode("utf-8"), head


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    audit_path = tmp_path_factory.mktemp("serve") / "audit.ndjson"
    config = ServeConfig(audit_path=str(audit_path))
    with AnalysisServer(config=config) as tier:
        tier.audit_path = audit_path
        yield tier


@pytest.fixture(scope="module")
def url(server):
    return server.url


def _create(url, tenant, name, services=SERVICES, **extra):
    status, payload, _ = _request(
        f"{url}/v1/{tenant}/sessions",
        method="POST",
        body={"name": name, "services": services, **extra},
    )
    assert status == 201, payload
    return payload


class TestInfrastructureRoutes:
    def test_health_ready_metrics(self, url):
        status, payload, _ = _request(f"{url}/health")
        assert (status, payload) == (200, {"status": "ok"})

        status, payload, _ = _request(f"{url}/ready")
        assert status == 200 and payload["ready"] is True

        status, text, head = _request(f"{url}/metrics")
        assert status == 200
        assert "text/plain" in head["Content-Type"]
        assert "repro_serve_requests_total" in text

    def test_unknown_routes_are_404(self, url):
        for path in ("/nope", "/v1/acme/nope", "/v1/acme/sessions/ghost"):
            status, payload, _ = _request(f"{url}{path}")
            assert status == 404, (path, payload)


class TestSessionLifecycle:
    def test_create_list_info_and_collision(self, url):
        created = _create(url, "life", "main")
        assert created["services"] == SERVICES
        assert created["version"] == 0
        assert created["warm_start"] is False

        status, payload, _ = _request(f"{url}/v1/life/sessions")
        assert status == 200 and payload["sessions"] == ["main"]

        status, info, _ = _request(f"{url}/v1/life/sessions/main")
        assert status == 200
        assert info["shard"] == created["shard"]
        assert info["attackers"] == ["baseline"]

        status, payload, _ = _request(
            f"{url}/v1/life/sessions",
            method="POST",
            body={"name": "main", "services": SERVICES},
        )
        assert status == 409, payload

    def test_create_validation_is_400(self, url):
        for body in (
            {"name": "bad"},  # neither cold nor warm
            {"name": "bad", "services": 4, "snapshot": {}},  # both
            {"name": "bad", "services": 0},  # out of bounds
            {},  # no name
        ):
            status, payload, _ = _request(
                f"{url}/v1/life/sessions", method="POST", body=body
            )
            assert status == 400, (body, payload)


class TestQueryMutateRequery:
    def test_query_mutate_requery_and_paginate_across_mutation(self, url):
        tenant = "acme"
        _create(url, tenant, "main")
        base = f"{url}/v1/{tenant}/sessions/main"

        status, before, _ = _request(
            f"{base}/query", method="POST", body={"kind": "measurement"}
        )
        assert status == 200 and before["kind"] == "measurement"

        status, batch, _ = _request(
            f"{base}/batch",
            method="POST",
            body={
                "queries": [
                    {"kind": "level_report"},
                    {"kind": "edge_summary", "include_weak": True},
                ]
            },
        )
        assert status == 200
        assert [entry["kind"] for entry in batch["results"]] == [
            "level_report",
            "edge_summary",
        ]

        # First page of the couple stream, pre-mutation.
        status, page1, _ = _request(
            f"{base}/query",
            method="POST",
            body={"kind": "couples", "cursor": 0, "page_size": 5},
        )
        assert status == 200 and page1["kind"] == "couple_page"
        cursor = page1["data"]["next_cursor"]
        assert cursor is not None

        status, receipt, _ = _request(
            f"{base}/mutations",
            method="POST",
            body={"kind": "apply_hardening", "defense": "unified_masking"},
        )
        assert status == 200
        assert receipt["outcome"] == "applied"
        assert receipt["version"] == 1

        status, after, _ = _request(
            f"{base}/query", method="POST", body={"kind": "measurement"}
        )
        assert status == 200
        assert after != before  # hardening moved the measurement

        # The pre-mutation cursor stays valid across the mutation: the
        # stream's watermark contract survives the HTTP surface.
        status, page2, _ = _request(
            f"{base}/query",
            method="POST",
            body={"kind": "couples", "cursor": cursor, "page_size": 5},
        )
        assert status == 200
        assert page2["data"]["cursor"] == cursor
        assert page2["data"]["records"] != page1["data"]["records"]

    def test_malformed_documents_are_400_and_never_reach_a_shard(self, url):
        tenant = "acme-bad"
        _create(url, tenant, "main")
        base = f"{url}/v1/{tenant}/sessions/main"

        for path, body in (
            ("query", {"kind": "no-such-kind"}),
            ("query", {"kind": "closure", "extra_info": ["bogus"]}),
            ("batch", {"nope": []}),
            ("mutations", {"kind": "no-such-mutation"}),
            ("mutations", {"kind": "apply_hardening", "defense": "x"}),
        ):
            status, payload, _ = _request(
                f"{base}/{path}", method="POST", body=body
            )
            assert status == 400, (path, body, payload)

        # Rejected at the edge: no shard applied (or audited) anything.
        status, payload, _ = _request(f"{url}/v1/{tenant}/audit")
        assert status == 200 and payload["entries"] == []


class TestMutationErrors:
    def test_unknown_service_removal_is_404_applied_once(self, server, url):
        """A client mistake is rejected once, as a client error: 404, one
        ``rejected`` audit record, and a session left untouched."""
        tenant = "rejects"
        _create(url, tenant, "main")
        base = f"{url}/v1/{tenant}/sessions/main"

        status, payload, _ = _request(
            f"{base}/mutations",
            method="POST",
            body={"kind": "remove_service", "service": "no-such-service"},
        )
        assert status == 404, payload
        assert "no-such-service" in payload["error"]

        status, info, _ = _request(base)
        assert status == 200 and info["version"] == 0

        status, receipt, _ = _request(
            f"{base}/mutations",
            method="POST",
            body={"kind": "apply_hardening", "defense": "unified_masking"},
        )
        assert status == 200, receipt
        assert receipt["version"] == 1

        # The audit NDJSON file carries the whole story for this tenant.
        records = [
            json.loads(line)
            for line in server.audit_path.read_text().splitlines()
        ]
        mine = [r for r in records if r["tenant"] == tenant]
        assert [r["outcome"] for r in mine] == ["rejected", "applied"]
        rejected = mine[0]
        assert "no-such-service" in rejected["error"]
        assert "version" not in rejected
        assert "attempts" not in rejected

    def test_audit_endpoint_serves_the_tail(self, url):
        tenant = "audited"
        _create(url, tenant, "main")
        status, receipt, _ = _request(
            f"{url}/v1/{tenant}/sessions/main/mutations",
            method="POST",
            body={"kind": "apply_hardening", "defense": "email_hardening"},
        )
        assert status == 200, receipt

        status, payload, _ = _request(f"{url}/v1/{tenant}/audit?tail=10")
        assert status == 200
        entries = payload["entries"]
        assert len(entries) == 1
        assert entries[0]["outcome"] in ("applied", "noop")
        assert entries[0]["mutation"]["kind"] == "apply_hardening"
        assert entries[0]["session"] == "main"

        status, payload, _ = _request(f"{url}/v1/{tenant}/audit?tail=0")
        assert (status, payload["entries"]) == (200, [])


class TestMigration:
    def test_migrate_serves_identically_while_other_tenant_runs(self, url):
        """The acceptance proof: tenant alpha's session snapshots on one
        shard and restores on another with bit-identical results, while
        tenant beta's traffic proceeds uninterrupted throughout."""
        _create(url, "alpha", "main")
        _create(url, "beta", "main")
        alpha = f"{url}/v1/alpha/sessions/main"
        beta = f"{url}/v1/beta/sessions/main"
        workload = {
            "queries": [
                {"kind": "level_report"},
                {"kind": "measurement"},
                {"kind": "closure"},
                {"kind": "edge_summary", "include_weak": True},
                {"kind": "couples", "page_size": 8},
                {"kind": "defense_eval"},
            ]
        }

        status, before, _ = _request(
            f"{alpha}/batch", method="POST", body=workload
        )
        assert status == 200
        status, info_before, _ = _request(alpha)
        assert status == 200

        stop = threading.Event()
        beta_failures = []

        def beta_traffic():
            while not stop.is_set():
                status, payload, _ = _request(
                    f"{beta}/query",
                    method="POST",
                    body={"kind": "measurement"},
                )
                if status != 200:
                    beta_failures.append((status, payload))

        runner = threading.Thread(target=beta_traffic, daemon=True)
        runner.start()
        try:
            status, moved, _ = _request(
                f"{alpha}/migrate", method="POST"
            )
            assert status == 200
            assert moved["from_shard"] == info_before["shard"]
            assert moved["to_shard"] != moved["from_shard"]
            assert moved["version"] == info_before["version"]
            assert moved["warm_results"] > 0

            status, info_after, _ = _request(alpha)
            assert status == 200
            assert info_after["shard"] == moved["to_shard"]

            status, after, _ = _request(
                f"{alpha}/batch", method="POST", body=workload
            )
            assert status == 200
            assert after == before  # bit-for-bit across the migration
        finally:
            stop.set()
            runner.join(timeout=10.0)
        assert beta_failures == []

        # And the restored session keeps accepting mutations.
        status, receipt, _ = _request(
            f"{alpha}/mutations",
            method="POST",
            body={"kind": "apply_hardening", "defense": "unified_masking"},
        )
        assert status == 200 and receipt["outcome"] == "applied"

    def test_snapshot_endpoint_warm_starts_a_new_session(self, url):
        _create(url, "donor", "main")
        donor = f"{url}/v1/donor/sessions/main"
        status, result, _ = _request(
            f"{donor}/query", method="POST", body={"kind": "level_report"}
        )
        assert status == 200

        status, document, _ = _request(f"{donor}/snapshot")
        assert status == 200
        assert document["warm_results"]

        status, created, _ = _request(
            f"{url}/v1/recipient/sessions",
            method="POST",
            body={"name": "clone", "snapshot": document},
        )
        assert status == 201
        assert created["warm_start"] is True
        assert created["services"] == SERVICES

        status, replica, _ = _request(
            f"{url}/v1/recipient/sessions/clone/query",
            method="POST",
            body={"kind": "level_report"},
        )
        assert status == 200 and replica == result


class TestAdmissionControl:
    def test_overflow_is_429_with_retry_after(self):
        """With a 1-slot, 0-queue gate, a request arriving while a slow
        cold session build holds the slot is rejected immediately with
        ``Retry-After`` -- and other tenants are unaffected."""
        config = ServeConfig(
            max_concurrent_per_tenant=1,
            max_queue_per_tenant=0,
            retry_after_seconds=2.5,
        )
        with AnalysisServer(config=config) as tier:
            url = tier.url
            _create(url, "busy", "main", services=8)
            _create(url, "calm", "main", services=8)

            slow_result = {}

            def slow_build():
                slow_result["response"] = _request(
                    f"{url}/v1/busy/sessions",
                    method="POST",
                    body={"name": "big", "services": 1000},
                    timeout=120.0,
                )

            worker = threading.Thread(target=slow_build, daemon=True)
            worker.start()

            # Wait (via the admission-free infrastructure route) until
            # the build actually holds busy's only slot; polling the
            # tenant route here would steal the slot and reject the
            # build instead.
            for _ in range(500):
                status, snapshot, _ = _request(f"{url}/observability")
                assert status == 200
                gates = snapshot["admission"]
                if gates.get("busy", {}).get("active", 0) >= 1:
                    break
                time.sleep(0.002)
            else:
                pytest.fail("mutation never occupied the admission slot")

            status, payload, head = _request(
                f"{url}/v1/busy/sessions/main", timeout=5.0
            )
            assert status == 429, payload
            assert head["Retry-After"] == "2.5"
            assert payload["retry_after"] == 2.5

            # The other tenant's gate is independent.
            status, _payload, _ = _request(f"{url}/v1/calm/sessions/main")
            assert status == 200

            worker.join(timeout=120.0)
            status, payload, _ = slow_result["response"]
            assert status == 201, payload
            assert payload["services"] == 1000

            # Rejections surfaced on the serve-tier metrics.
            status, text, _ = _request(f"{url}/metrics")
            assert status == 200
            assert (
                'repro_serve_admission_rejects_total{tenant="busy"}'
                in text
            )


class TestObservabilityRoutes:
    def test_session_scoped_metrics_and_observability(self, url):
        tenant = "obs"
        _create(url, tenant, "main")
        base = f"{url}/v1/{tenant}/sessions/main"
        _request(
            f"{base}/query", method="POST", body={"kind": "measurement"}
        )

        status, snapshot, _ = _request(f"{base}/observability")
        assert status == 200
        assert snapshot["version"] == 0
        assert "layers" in snapshot and "metrics" in snapshot

        status, text, head = _request(f"{base}/metrics")
        assert status == 200
        assert "text/plain" in head["Content-Type"]
        assert "repro_api_queries_total" in text

        status, tier_snapshot, _ = _request(f"{url}/observability")
        assert status == 200
        routed = {
            (entry["tenant"], entry["session"])
            for entry in tier_snapshot["shards"]
        }
        assert (tenant, "main") in routed


class TestKeepAlive:
    def test_reused_connection_answers_without_a_delayed_ack_stall(
        self, server, url
    ):
        """Over one persistent connection, small and >8 KiB responses
        both come back in milliseconds.  A head and body written
        separately wait ~40 ms each for the client's delayed ACK (Nagle);
        an 8 KiB write buffer still splits any body larger than itself."""
        tenant = "keepalive"
        _create(url, tenant, "main")
        base = f"/v1/{tenant}/sessions/main"
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30.0)

        def timed(method, path, body=None):
            start = time.perf_counter()
            connection.request(
                method, path, body=json.dumps(body) if body else None
            )
            response = connection.getresponse()
            payload = response.read()
            elapsed = time.perf_counter() - start
            assert response.status == 200, payload
            return elapsed, payload

        try:
            # Run a batch first so the session's observability snapshot
            # carries every engine layer's metrics.
            timed(
                "POST",
                f"{base}/batch",
                {
                    "queries": [
                        {"kind": "level_report"},
                        {"kind": "measurement"},
                        {"kind": "closure"},
                    ]
                },
            )
            for path, large in (
                ("/health", False),
                (f"{base}/observability", True),
            ):
                samples = [timed("GET", path) for _ in range(12)]
                assert (len(samples[-1][1]) > 8192) is large, path
                median_ms = statistics.median(
                    elapsed for elapsed, _ in samples
                ) * 1e3
                assert median_ms < 20.0, (path, median_ms)
        finally:
            connection.close()


class TestBodyFraming:
    @pytest.mark.parametrize("length", [b"-1", b"twelve"])
    def test_invalid_content_length_is_400_and_closes(self, server, length):
        """A length that does not frame a body answers one 400 and closes
        the connection: the server neither waits for EOF (``read(-1)``)
        nor parses the bytes behind it as a pipelined request."""
        smuggled = b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n"
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(
                b"POST /v1/framing/sessions HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: " + length + b"\r\n\r\n" + smuggled
            )
            # Read until the server closes; a timeout means it never did.
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert b"Connection: close\r\n" in reply
