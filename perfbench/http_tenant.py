"""``http_tenant``: one tenant session over the program's HTTP tier.

The server runs in its own process (``serve_launcher.py``); this process
is the one client, on one persistent HTTP/1.1 connection, in a closed
loop.

- Set-up (:data:`workloads.SETUPS` times): cold-create a donor session
  and serve the Section-IV batch.
- Phase 1: fetch the donor's snapshot, then :data:`RESTORES` restores
  (``POST /sessions`` with the snapshot), each followed by its first
  mutation.
- Phase 2, for ``--seconds``: 19 reads to 1 write against the last
  restored session.  A read is one Section-IV query; writes are the
  seeded mutation stream drawn against a local copy of the ecosystem and
  sent as ``mutation_to_dict`` documents.

Correctness: every status is checked, every receipt is compared with an
in-process mirror service that applies the same mutations, and response
bodies are compared with the mirror's ``result_to_dict`` at the same
version (all reads of one kind at one version must be byte-identical;
the mirror recomputes at most :data:`VERIFIED_VERSIONS` of them).
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import subprocess
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

import harness
import tracing
import workloads
from harness import Metric
from workloads import Outcome

SERVICES = 1000
TOY_SERVICES = 60
RESTORES = 3
READS_PER_WRITE = 19
READ_KINDS = ("level_report", "measurement", "closure", "edge_summary")
VERIFIED_VERSIONS = 40
#: Traced runs toggle spans every this many phase-2 requests, so
#: ``trace.overhead_ratio`` compares interleaved traced and untraced reads.
TRACE_BLOCK = 20
TENANT = "bench"


class _Server:
    """The launcher process and its control pipe."""

    def __init__(self, traced: bool) -> None:
        args = ["--trace"] if traced else []
        self.process = subprocess.Popen(
            harness.child_command("serve_launcher.py", *args),
            env=harness.python_env(),
            cwd=harness.ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        hello = self._read()
        self.missing = hello.get("missing_targets", [])
        url = urllib.parse.urlparse(hello["url"])
        self.host, self.port = url.hostname, url.port

    def _read(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server launcher exited early")
        return json.loads(line)

    def command(self, command: str) -> Dict[str, Any]:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.close()
            except (BrokenPipeError, ValueError):
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class _Client:
    """One persistent connection; every request is timed and logged."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=120)
        self.next_id = 0
        self.statuses: Dict[str, int] = {}
        self.wire_bytes: Dict[str, int] = {}

    def request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, bytes, float, float, str]:
        """-> (status, body bytes, start, end, request id)."""
        self.next_id += 1
        request_id = str(self.next_id)
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"X-Request-Id": request_id}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        end = time.perf_counter()
        self.statuses[request_id] = response.status
        self.wire_bytes[request_id] = len(data) + len(payload or b"")
        return response.status, data, start, end, request_id

    def close(self) -> None:
        self.connection.close()


def _session_path(name: str, sub: str = "") -> str:
    path = f"/v1/{TENANT}/sessions/{name}"
    return f"{path}/{sub}" if sub else path


class _Traced:
    """Traced-run bookkeeping: which requests were traced, and the
    registry totals over the traced stretches only."""

    def __init__(self, server: _Server, enabled: bool) -> None:
        self.server = server
        self.enabled = enabled
        self.on = False
        self.registry: Dict[str, float] = {}
        self._since: Dict[str, float] = {}
        #: (start, end, request id) of every traced request.
        self.noted: List[Tuple[float, float, str]] = []

    def switch(self, on: bool) -> None:
        if not self.enabled or on == self.on:
            return
        totals = self.server.command("on" if on else "off")["registry"]
        if on:
            self._since = totals
        else:
            for key, value in tracing.subtract(totals, self._since).items():
                self.registry[key] = self.registry.get(key, 0) + value
        self.on = on

    def note(self, start: float, end: float, request_id: str) -> None:
        if self.on:
            self.noted.append((start, end, request_id))


def run(seed: int, seconds: float, traced: bool, toy: bool, corrupt: bool):
    from repro.api import AnalysisService
    from repro.api.wire import result_to_dict
    from repro.dynamic import MutationStream
    from repro.utils.serialization import mutation_to_dict

    services = TOY_SERVICES if toy else SERVICES
    outcome = Outcome(services)
    checks = outcome.checks
    server = _Server(traced)
    try:
        client = _Client(server.host, server.port)
        trace = _Traced(server, traced)
        batch = {"queries": [{"kind": kind} for kind in READ_KINDS]}

        # -- set-up: donor sessions ------------------------------------
        setup_seconds: List[float] = []
        donor_batches: List[bytes] = []
        snapshot: Optional[bytes] = None
        for index in range(workloads.SETUPS):
            name = f"donor{index}"
            status, _body, started, _end, _rid = client.request(
                "POST", f"/v1/{TENANT}/sessions",
                {"name": name, "services": services,
                 "seed": harness.CATALOG_SEED},
            )
            checks.expect(f"create {name} -> 201", status == 201)
            status, body, _start, end, _rid = client.request(
                "POST", _session_path(name, "batch"), batch
            )
            checks.expect(f"batch {name} -> 200", status == 200)
            donor_batches.append(body)
            setup_seconds.append(end - started)

        # -- phase 1: restores, each followed by its first mutation -------
        trace.switch(True)
        status, snapshot, start, end, rid = client.request(
            "GET", _session_path(f"donor{workloads.SETUPS - 1}", "snapshot")
        )
        trace.note(start, end, rid)
        checks.expect("snapshot -> 200", status == 200)
        document = json.loads(snapshot)
        ecosystem = workloads.catalog(services)
        stream = MutationStream(seed=seed)
        writes: List[Any] = [stream.next_mutation(ecosystem)]
        ecosystem, _delta = ecosystem.apply(writes[0])
        first_write = mutation_to_dict(writes[0])
        restore_seconds: List[float] = []
        first_write_seconds: List[float] = []
        restore_receipts: List[bytes] = []
        for index in range(RESTORES):
            name = f"restored{index}"
            status, _body, start, end, rid = client.request(
                "POST", f"/v1/{TENANT}/sessions",
                {"name": name, "snapshot": document},
            )
            trace.note(start, end, rid)
            restore_seconds.append(end - start)
            checks.expect(f"restore {name} -> 201", status == 201)
            status, body, start, end, rid = client.request(
                "POST", _session_path(name, "mutations"), first_write
            )
            trace.note(start, end, rid)
            first_write_seconds.append(end - start)
            checks.expect(f"first write on {name} -> 200", status == 200)
            restore_receipts.append(body)

        # -- phase 2: 19 reads to 1 write --------------------------------
        target = _session_path(f"restored{RESTORES - 1}")
        rng = random.Random(seed)
        reads: List[Tuple[int, str, bytes, float]] = []
        write_log: List[Tuple[bytes, float]] = []
        read_traced: List[bool] = []
        phase_started = time.perf_counter()
        count = 0
        while time.perf_counter() - phase_started < seconds:
            if traced:
                trace.switch((count // TRACE_BLOCK) % 2 == 0)
            count += 1
            if count % (READS_PER_WRITE + 1) == 0:
                mutation = stream.next_mutation(ecosystem)
                ecosystem, _delta = ecosystem.apply(mutation)
                writes.append(mutation)
                status, body, start, end, rid = client.request(
                    "POST", f"{target}/mutations", mutation_to_dict(mutation)
                )
                checks.expect(f"write {len(writes)} -> 200", status == 200)
                write_log.append((body, end - start))
            else:
                kind = rng.choice(READ_KINDS)
                status, body, start, end, rid = client.request(
                    "POST", f"{target}/query", {"kind": kind}
                )
                checks.expect(f"read {kind} -> 200", status == 200)
                reads.append((len(writes), kind, body, end - start))
                read_traced.append(trace.on)
            trace.note(start, end, rid)
        phase_seconds = time.perf_counter() - phase_started
        trace.switch(False)
        report = server.command("report")
        client.close()
    finally:
        server.close()

    # -- verification against the in-process mirror ----------------------
    mirror = AnalysisService(workloads.catalog(services))
    expected_batch = harness.canonical(
        [result_to_dict(r) for r in mirror.execute_batch(
            workloads.section_iv_batch())]
    )
    for index, body in enumerate(donor_batches):
        checks.compare(
            f"donor{index} batch equals mirror",
            harness.canonical(json.loads(body)["results"]) if body else None,
            expected_batch,
        )
    receipt = mirror.apply(writes[0])
    for index, body in enumerate(restore_receipts):
        _check_receipt(checks, f"restored{index} first write", body, receipt)
    _verify_phase2(
        checks, mirror, writes, reads, write_log, corrupt, result_to_dict
    )

    # -- figures -----------------------------------------------------------
    plain_reads = [
        latency for (_v, _k, _b, latency), on in zip(reads, read_traced)
        if not on
    ]
    writes_latency = [latency for _body, latency in write_log]
    requests = len(reads) + len(write_log)
    outcome.setup_s = statistics.median(setup_seconds)
    outcome.peak_rss_mb = report["peak_rss_mb"]
    outcome.serve_p50_ms = (
        statistics.median(plain_reads) * 1e3 if plain_reads else 0.0
    )
    outcome.serve_samples = len(plain_reads)
    # Reads wait mostly on the network stack's timers, not the CPU, so
    # their latency is reported as measured.
    outcome.serve_rescaled = False
    outcome.metrics = [
        Metric("setup_s", outcome.setup_s, "s", len(setup_seconds)),
        Metric("peak_rss_mb", outcome.peak_rss_mb, "MB", 1,
               "server process"),
        Metric("http_requests_per_s", requests / phase_seconds, "1/s",
               requests),
        *harness.timing_metrics("http_read", plain_reads),
        *harness.timing_metrics("http_write", writes_latency),
        Metric("first_write_after_restore_ms",
               statistics.median(first_write_seconds) * 1e3, "ms",
               len(first_write_seconds)),
        Metric("restore_ms", statistics.median(restore_seconds) * 1e3,
               "ms", len(restore_seconds)),
    ]
    outcome.extras.update(
        requests=requests,
        writes=len(write_log),
        snapshot_bytes=len(snapshot or b""),
        statuses=_status_counts(client.statuses.values()),
    )
    if traced:
        _traced_figures(
            outcome, report, trace, reads, read_traced, write_log, client,
            snapshot,
        )
        outcome.extras["missing_targets"] = server.missing
    return outcome


def _check_receipt(checks, label: str, body: bytes, receipt) -> None:
    try:
        document = json.loads(body)
    except ValueError:
        checks.fail(f"{label}: receipt is not JSON")
        checks.attempted += 1
        return
    expected_outcome = "noop" if receipt.delta.is_noop else "applied"
    checks.compare(
        f"{label} receipt",
        (document.get("outcome"), document.get("version"),
         document.get("delta")),
        (expected_outcome, receipt.version, receipt.delta.describe()),
    )


def _verify_phase2(
    checks, mirror, writes, reads, write_log, corrupt, result_to_dict
) -> None:
    """Replay the writes on the mirror; compare receipts, and read bodies
    at up to :data:`VERIFIED_VERSIONS` versions (reads of one kind at one
    version must all be the same bytes)."""
    from repro.api.wire import query_from_dict

    by_version: Dict[int, Dict[str, List[bytes]]] = {}
    for write_count, kind, body, _latency in reads:
        by_version.setdefault(write_count, {}).setdefault(kind, []).append(
            body
        )
    versions = sorted(by_version)
    if len(versions) > VERIFIED_VERSIONS:
        step = (len(versions) - 1) / (VERIFIED_VERSIONS - 1)
        sampled = {versions[round(i * step)] for i in range(VERIFIED_VERSIONS)}
    else:
        sampled = set(versions)
    tampered = not corrupt

    def verify(write_count: int) -> None:
        nonlocal tampered
        for kind, bodies in sorted(by_version.get(write_count, {}).items()):
            for body in bodies[1:]:
                checks.compare(
                    f"{kind} at write {write_count} is stable", body, bodies[0]
                )
            if write_count not in sampled:
                continue
            got = harness.canonical(json.loads(bodies[0]))
            if not tampered:
                got, tampered = got + " ", True
            expected = harness.canonical(
                result_to_dict(mirror.execute(query_from_dict({"kind": kind})))
            )
            checks.compare(f"{kind} at write {write_count}", got, expected)

    verify(1)
    for index, (body, _latency) in enumerate(write_log, start=2):
        receipt = mirror.apply(writes[index - 1])
        _check_receipt(checks, f"write {index}", body, receipt)
        verify(index)


def _status_counts(statuses) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for status in statuses:
        key = f"{status // 100}xx"
        counts[key] = counts.get(key, 0) + 1
    return counts


def _traced_figures(
    outcome, report, trace, reads, read_traced, write_log, client, snapshot
) -> None:
    ids = {request_id for _start, _end, request_id in trace.noted}
    log = tracing.SpanLog()
    log.spans = [span for span in report["spans"] if span[4] in ids]
    outcome.span_log = log
    outcome.span_table = tracing.span_table(log)
    outcome.units = len(ids)
    server_seconds = tracing.request_seconds(log)
    wait, busy = tracing.shard_split(log)
    latencies, gaps = [], []
    for start, end, request_id in trace.noted:
        if request_id in server_seconds:
            latencies.append(end - start)
            gaps.append(end - start - server_seconds[request_id])
    retries = 0
    for body, _latency in write_log:
        try:
            retries += max(0, json.loads(body).get("attempts", 1) - 1)
        except ValueError:
            pass
    traced_reads = [
        latency for (_v, _k, _b, latency), on in zip(reads, read_traced) if on
    ]
    plain_reads = [
        latency for (_v, _k, _b, latency), on in zip(reads, read_traced)
        if not on
    ]
    statuses = _status_counts(client.statuses[i] for i in ids)
    outcome.layers = tracing.layer_metrics(
        outcome.span_table,
        trace.registry,
        outcome.units,
        {
            "dynamic.snapshot_bytes": len(snapshot or b""),
            "api.wire_bytes": sum(client.wire_bytes[i] for i in ids),
            "serve.shard_wait_s": wait,
            "serve.shard_busy_s": busy,
            "serve.wire_gap_s": sum(gaps),
            "serve.retries": retries,
            "serve.status_4xx": statuses.get("4xx", 0),
            "serve.status_5xx": statuses.get("5xx", 0),
            "trace.overhead_ratio": (
                statistics.median(traced_reads) / statistics.median(plain_reads)
                if traced_reads and plain_reads else 0.0
            ),
            "trace.coverage_ratio": tracing.coverage(
                log, [(start, end) for start, end, _id in trace.noted]
            ),
        },
    )
    if gaps:
        share = statistics.median(gaps) / statistics.median(latencies)
        outcome.extras["answers"] = [
            f"serve.wire_gap_s is {share:.0%} of the median traced request "
            f"latency: {'most' if share > 0.5 else 'not most'} of "
            "http_read_p50_ms"
        ]
