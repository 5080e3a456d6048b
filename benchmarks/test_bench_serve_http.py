"""The multi-tenant HTTP tier end to end: what a network client pays.

Everything the other serving benchmarks measure in-process rides real
HTTP here -- stdlib server, JSON codecs, admission, shard inbox -- at
the paper-doubling 402 tier and the 1000-service tier (the latter
skipped under ``BENCH_QUICK``).  Four numbers per tier land in
``BENCH_scaling.json`` under ``serve_http``:

- **cold build**: ``POST /sessions`` with a catalog size -- the full
  catalog + stage-1/2 + graph build inside the request;
- **warm start**: ``POST /sessions`` with the donor's snapshot document
  -- the migration path's cold-start replacement.  Its speedup over the
  cold build is the serving tier's reason to exist (the tier-1 gate
  ``test_snapshot_warm_start_beats_cold_build_5x_at_402`` enforces the
  in-process floor);
- **warm query p50/p99**: repeated single-query requests against a
  cached result over one persistent connection -- the steady-state read
  latency a connection-reusing client pays, keep-alive effects included;
- **mutations/sec**: serialized ``POST /mutations`` receipts through
  one shard's single-writer loop.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import statistics
import time
import urllib.parse
import urllib.request

from repro.serve import AnalysisServer, ServeConfig

JSON_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_scaling.json"
)

QUICK = bool(os.environ.get("BENCH_QUICK"))

#: HTTP tiers; 1000 is skipped under ``BENCH_QUICK``.
SIZES = (402, 1000)

WARM_QUERY_SAMPLES = 40
MUTATION_SAMPLES = 24


def _post(url: str, body=None, timeout: float = 300.0):
    data = json.dumps(body or {}).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(url: str, timeout: float = 300.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(
        len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def _bench_tier(url: str, size: int) -> dict:
    base = f"{url}/v1/bench{size}"
    batch = {
        "queries": [
            {"kind": "level_report"},
            {"kind": "measurement"},
            {"kind": "closure"},
            {"kind": "edge_summary"},
        ]
    }

    # Both start paths are timed to *first batch served*: a bare create
    # is cheap on both sides (engines materialize lazily), so the fair
    # comparison is how long until the standard batch is in hand --
    # computed through the engines on the cold path, carried as warm
    # results on the snapshot path.
    start = time.perf_counter()
    status, created = _post(
        f"{base}/sessions", {"name": "cold", "services": size}
    )
    assert status == 201 and created["services"] == size
    session = f"{base}/sessions/cold"
    status, cold_batch = _post(f"{session}/batch", batch)
    cold_build = time.perf_counter() - start
    assert status == 200

    status, document = _get(f"{session}/snapshot")
    assert status == 200
    snapshot_bytes = len(json.dumps(document).encode("utf-8"))
    warm_results_carried = len(document.get("warm_results", ()))

    start = time.perf_counter()
    status, restored = _post(
        f"{base}/sessions", {"name": "warm", "snapshot": document}
    )
    assert status == 201 and restored["warm_start"] is True
    status, warm_batch = _post(f"{base}/sessions/warm/batch", batch)
    warm_start = time.perf_counter() - start
    assert status == 200
    assert warm_batch == cold_batch

    address = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(
        address.hostname, address.port, timeout=300.0
    )
    query_path = f"/v1/bench{size}/sessions/warm/query"
    query_body = json.dumps({"kind": "measurement"})
    query_seconds = []
    try:
        for _ in range(WARM_QUERY_SAMPLES):
            start = time.perf_counter()
            connection.request(
                "POST",
                query_path,
                body=query_body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            query_seconds.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()

    service_names = sorted(
        entry["service"] for entry in document["auth_reports"]
    )
    mutation_documents = [
        {
            "kind": "change_masking",
            "service": name,
            "platform": "web",
            "info_kind": "email_address",
            "spec": {"reveal_prefix": 1 + (index % 2)},
        }
        for index, name in enumerate(
            service_names[:MUTATION_SAMPLES]
        )
    ]
    start = time.perf_counter()
    for mutation_document in mutation_documents:
        status, receipt = _post(
            f"{base}/sessions/warm/mutations", mutation_document
        )
        assert status == 200, receipt
    mutation_elapsed = time.perf_counter() - start

    return {
        "size": size,
        "cold_build_seconds": cold_build,
        "warm_start_seconds": warm_start,
        "warm_start_speedup": cold_build / warm_start,
        "snapshot_bytes": snapshot_bytes,
        "warm_results_carried": warm_results_carried,
        "query_samples": WARM_QUERY_SAMPLES,
        "query_p50_seconds": statistics.median(query_seconds),
        "query_p99_seconds": _percentile(query_seconds, 0.99),
        "mutation_samples": MUTATION_SAMPLES,
        "mutations_per_second": MUTATION_SAMPLES / mutation_elapsed,
    }


def test_bench_serve_http(benchmark):
    sizes = tuple(
        size for size in SIZES if not (QUICK and size > 402)
    )
    tiers = {}
    with AnalysisServer(config=ServeConfig()) as tier:
        for size in sizes:
            tiers[str(size)] = _bench_tier(tier.url, size)
        warm_session = f"{tier.url}/v1/bench{sizes[0]}/sessions/warm"
        benchmark.pedantic(
            lambda: _post(
                f"{warm_session}/query", {"kind": "measurement"}
            ),
            rounds=5,
            iterations=1,
        )

    for size, payload in tiers.items():
        print(
            f"\nserve_http tier at {size} services: "
            f"cold build {payload['cold_build_seconds'] * 1e3:.0f}ms, "
            f"snapshot warm-start {payload['warm_start_seconds'] * 1e3:.0f}ms "
            f"({payload['warm_start_speedup']:.0f}x), "
            f"query p50 {payload['query_p50_seconds'] * 1e3:.2f}ms / "
            f"p99 {payload['query_p99_seconds'] * 1e3:.2f}ms, "
            f"{payload['mutations_per_second']:.0f} mutations/s"
        )

    merged = {}
    if JSON_PATH.exists():
        try:
            merged = json.loads(JSON_PATH.read_text())
        except ValueError:
            merged = {}
    merged["serve_http"] = {"tiers": tiers}
    JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    benchmark.extra_info["serve_http"] = tiers

    # The migration path must stay a win even with the snapshot upload
    # on the wire; the strict >=5x in-process floor is tier-1's gate
    # (test_snapshot_warm_start_beats_cold_build_5x_at_402), so this
    # only trips if warm-start stops beating a cold build at all.
    for payload in tiers.values():
        assert payload["warm_start_speedup"] >= 1.2, payload
