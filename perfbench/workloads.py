"""The in-process workloads: ``cold_start``, ``churn_reserve``, ``stream_churn``.

Each is one closed loop driven by a single caller in this process (the
next operation starts when the previous one returned).  Each workload
function returns a :class:`Outcome`; ``run.py`` turns it into the report
and the result line.

Traced runs pair every measured cycle: the same mutation goes to an
untraced twin session, then to the traced one, so ``trace.overhead_ratio``
compares like with like.  Only the traced twin's cycles feed the layer
metrics.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import tracing
from harness import Checks, Metric

#: Set-ups per run; ``setup_s`` reports their median.  Each set-up of a
#: churn workload becomes a warm session ("lane") churned by its own
#: stream.
SETUPS = 3

#: Catalog size per workload (full scale, and the self-test's toy scale).
SIZES = {"cold_start": 3000, "churn_reserve": 1000, "stream_churn": 402}
TOY_SIZES = {"cold_start": 60, "churn_reserve": 60, "stream_churn": 60}

#: cold_start: fewest cold audits per run (each is its own process).
MIN_COLD_AUDITS = 2

#: Page size of the first Couple File and weak-edge pages re-served.
PAGE_SIZE = 128

#: Lane ``k`` of a run with ``--seed s`` churns with stream seed
#: ``LANE_SEEDS * s + k``.
LANE_SEEDS = 1000

#: Churn workloads read peak RSS after this many cycles, so that it does
#: not depend on how many cycles the machine's speed fits in the run.
RSS_AFTER_CYCLES = 50


class Outcome:
    """What one workload run produced."""

    def __init__(self, services: int) -> None:
        self.services = services
        self.checks = Checks()
        #: The workload's own end-to-end figures, by name.
        self.metrics: List[Metric] = []
        #: The three figures every workload puts on its result line.
        self.setup_s: float = 0.0
        self.peak_rss_mb: float = 0.0
        self.serve_p50_ms: float = 0.0
        #: Whether ``serve_p50_ms`` is rescaled, and its sample count.
        self.serve_rescaled = True
        self.serve_samples: int = 0
        #: Traced runs only.
        self.layers: Dict[str, float] = {}
        self.span_table: Dict[str, Dict[str, float]] = {}
        self.units = 0
        self.extras: Dict[str, Any] = {}
        self.span_log: Optional[tracing.SpanLog] = None


def catalog(services: int):
    from repro.catalog.builder import CatalogBuilder
    from repro.catalog.spec import CatalogSpec

    return CatalogBuilder(
        CatalogSpec(total_services=services), seed=harness.CATALOG_SEED
    ).build_ecosystem()


def section_iv_batch() -> Tuple:
    from repro.api.queries import (
        ClosureQuery,
        EdgeSummaryQuery,
        LevelReportQuery,
        MeasurementQuery,
    )

    return (
        LevelReportQuery(),
        MeasurementQuery(),
        ClosureQuery(),
        EdgeSummaryQuery(),
    )


def wire(result: Any, drop: Sequence[str] = ("version",)) -> str:
    """A result's canonical wire text, minus fields that legitimately
    differ between a maintained session and a scratch one."""
    from repro.api.wire import result_to_dict

    return harness.canonical(harness.strip_keys(result_to_dict(result), drop))


def _corrupted(text: str) -> str:
    return text.replace(":", ": ", 1) + " "


def compare_batches(
    checks: Checks,
    label: str,
    got: Sequence[Any],
    expected: Sequence[Any],
    drop: Sequence[str] = ("version",),
    corrupt: bool = False,
) -> None:
    """Bit-for-bit wire comparison of two result batches."""
    for index, (mine, theirs) in enumerate(zip(got, expected)):
        text = wire(mine, drop)
        if corrupt and index == 0:
            text = _corrupted(text)
        checks.compare(
            f"{label}[{index}] {type(mine).__name__}", text, wire(theirs, drop)
        )
    checks.expect(f"{label} batch length", len(got) == len(expected))


# ----------------------------------------------------------------------
# cold_start: one cold audit per process
# ----------------------------------------------------------------------


def cold_child(services: int, traced: bool, corrupt: bool) -> Dict[str, Any]:
    """One cold audit: generate the catalog, build ``AnalysisService``
    with default arguments, serve one Section-IV batch.  Runs in its own
    process so its peak RSS is this build's alone."""
    log = tracing.SpanLog()
    missing: List[str] = []
    if traced:
        missing = tracing.install(log)
        log.enabled = True
    from repro.api import AnalysisService

    started = time.perf_counter()
    ecosystem = catalog(services)
    service = AnalysisService(ecosystem)
    built = time.perf_counter()
    results = service.execute_batch(section_iv_batch())
    served = time.perf_counter()
    log.enabled = False
    rss = harness.peak_rss_mb()

    documents = [json.loads(wire(result)) for result in results]
    if corrupt:
        documents[1]["data"]["service_count"] += 1
    problems = _cold_invariants(documents, ecosystem.service_names)
    digest = hashlib.sha256(
        harness.canonical(documents).encode("utf-8")
    ).hexdigest()
    record: Dict[str, Any] = {
        "setup_s": built - started,
        "first_serve_s": served - built,
        "peak_rss_mb": rss,
        "digest": digest,
        "invariant_checks": 4,
        "problems": problems,
    }
    if traced:
        record["span_table"] = tracing.span_table(log)
        record["coverage"] = tracing.coverage(log, [(started, served)])
        record["registry"] = tracing.registry_totals(
            [service.instrumentation.registry]
        )
        record["missing_targets"] = missing
    return record


def _cold_invariants(documents, names) -> List[str]:
    """Checks a cold batch must pass whatever the catalog: fractions are
    shares, the measurement counts every service, the closure partitions
    the services, and the edge summary is within range."""
    problems = []
    levels, measurement, closure, edges = (doc["data"] for doc in documents)
    shares = [
        share
        for platform in levels["fractions"].values()
        for share in platform.values()
    ]
    if not shares or not all(0.0 <= share <= 1.0 for share in shares):
        problems.append("level fractions outside [0, 1]")
    if measurement.get("service_count") != len(names):
        problems.append("measurement service_count != catalog size")
    compromised, safe = set(closure["compromised"]), set(closure["safe"])
    if compromised & safe or compromised | safe != set(names):
        problems.append("closure does not partition the services")
    if not (0 <= edges["fringe"] <= len(names) and edges["strong_edges"] >= 0):
        problems.append("edge summary out of range")
    return problems


def cold_start(
    seed: int, seconds: float, traced: bool, toy: bool, corrupt: bool
) -> Outcome:
    """Cold audits in fresh processes until ``seconds`` have passed.

    Every audit in a run builds the same catalog, so every one must serve
    the same bytes; each must also pass :func:`_cold_invariants`.  Traced
    runs alternate untraced and traced audits.
    """
    services = (TOY_SIZES if toy else SIZES)["cold_start"]
    outcome = Outcome(services)
    records: List[Dict[str, Any]] = []
    started = time.perf_counter()
    index = 0
    while (
        time.perf_counter() - started < seconds
        or len(records) < MIN_COLD_AUDITS
    ):
        child_traced = traced and index % 2 == 1
        args = ["--cold-child", "--services", str(services),
                "--trace", "1" if child_traced else "0"]
        if corrupt and index == 0:
            args.append("--corrupt")
        record = _run_child(args)
        record["traced"] = child_traced
        records.append(record)
        index += 1

    checks = outcome.checks
    reference = records[0].get("digest")
    for number, record in enumerate(records):
        if "error" in record:
            checks.fail(f"audit {number}: {record['error']}")
            checks.attempted += 1
            continue
        checks.attempted += record["invariant_checks"]
        for problem in record["problems"]:
            checks.fail(f"audit {number}: {problem}")
        checks.compare(
            f"audit {number} bytes equal audit 0", record["digest"], reference
        )

    ok = [record for record in records if "error" not in record]
    plain = [record for record in ok if not record["traced"]] or ok
    serve = [record["first_serve_s"] for record in plain]
    outcome.setup_s = _median([record["setup_s"] for record in plain])
    outcome.peak_rss_mb = _median([record["peak_rss_mb"] for record in plain])
    outcome.serve_p50_ms = _median(serve) * 1e3
    outcome.serve_rescaled = False
    outcome.serve_samples = len(serve)
    outcome.metrics = [
        Metric("setup_s", outcome.setup_s, "s", len(plain)),
        Metric("peak_rss_mb", outcome.peak_rss_mb, "MB", len(plain)),
        Metric("first_serve_s", _median(serve), "s", len(serve)),
    ]
    outcome.extras["audits"] = [
        {key: record.get(key) for key in
         ("setup_s", "first_serve_s", "peak_rss_mb", "traced", "error")}
        for record in records
    ]
    if traced:
        traced_records = [record for record in ok if record["traced"]]
        outcome.units = len(traced_records)
        outcome.span_table = tracing.merge_tables(
            record["span_table"] for record in traced_records
        )
        registry = {}
        for record in traced_records:
            for key, value in record["registry"].items():
                registry[key] = registry.get(key, 0) + value
        overhead = _ratio_of_medians(
            [r["first_serve_s"] for r in traced_records],
            [r["first_serve_s"] for r in ok if not r["traced"]],
        )
        outcome.layers = tracing.layer_metrics(
            outcome.span_table,
            registry,
            outcome.units,
            {
                "trace.overhead_ratio": overhead,
                "trace.coverage_ratio": _median(
                    [r["coverage"] for r in traced_records]
                ),
            },
        )
        outcome.extras["missing_targets"] = sorted(
            {m for r in traced_records for m in r["missing_targets"]}
        )
    return outcome


def _run_child(args: List[str]) -> Dict[str, Any]:
    completed = subprocess.run(
        harness.child_command("run.py", *args),
        env=harness.python_env(),
        cwd=harness.ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = (completed.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {completed.returncode}: {tail}"}
    return json.loads(lines[-1])


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio_of_medians(numerator, denominator) -> float:
    if not numerator or not denominator:
        return 0.0
    return statistics.median(numerator) / statistics.median(denominator)


# ----------------------------------------------------------------------
# churn_reserve / stream_churn: mutate-and-re-serve on a warm session
# ----------------------------------------------------------------------


class _Cycles:
    """Per-cycle timings of one session."""

    def __init__(self) -> None:
        self.apply: List[float] = []
        self.reserve: List[float] = []
        self.cycle: List[float] = []
        #: The reference loop's time, sampled right after each cycle.
        self.reference: List[float] = []
        self.windows: List[Tuple[float, float]] = []


def _setups(build, traced: bool) -> Tuple[List[float], List]:
    """Build :data:`SETUPS` lanes: one warm service each, churned by its
    own stream (plus, traced, an untraced twin fed the same mutations).
    Returns each timed set-up's wall seconds and the lanes as
    ``(service, twin or None)``."""
    seconds: List[float] = []
    lanes: List[Tuple[Any, Optional[Any]]] = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        service = build()
        seconds.append(time.perf_counter() - started)
        lanes.append((service, build() if traced else None))
    return seconds, lanes


def _mutate_and_reserve(
    seed: int,
    seconds: float,
    lanes: Sequence[Tuple[Any, Optional[Any]]],
    batch: Tuple,
    repeat: bool,
    checks: Checks,
    log: tracing.SpanLog,
) -> Tuple[_Cycles, _Cycles, int, float]:
    """The closed loop, round-robin over the lanes: draw the lane's next
    seeded mutation, ``apply`` it, re-serve ``batch`` (and, with
    ``repeat``, serve it again -- which must come entirely from the result
    cache and equal the first serve).

    Lane ``k`` draws from ``MutationStream(seed=LANE_SEEDS * seed + k)``:
    several short, independent churn histories per run instead of one long
    one, so one seed's early mutations do not set the cost of the whole
    run.  Returns the untraced and the traced cycle timings (the same
    object in an untraced run), the cycle count and the peak RSS after
    :data:`RSS_AFTER_CYCLES` cycles.
    """
    from repro.dynamic import MutationStream

    streams = [
        MutationStream(seed=LANE_SEEDS * seed + lane)
        for lane in range(len(lanes))
    ]
    plain, measured = _Cycles(), _Cycles()
    traced = lanes[0][1] is not None
    if not traced:
        measured = plain
    started = time.perf_counter()
    cycles = 0
    rss = None
    while time.perf_counter() - started < seconds:
        lane = cycles % len(lanes)
        service, twin = lanes[lane]
        mutation = streams[lane].next_mutation(service.ecosystem)
        runs = ((twin, plain, False), (service, measured, True)) if traced \
            else ((service, plain, False),)
        for session, into, spans in runs:
            log.enabled = spans
            t0 = time.perf_counter()
            try:
                session.apply(mutation)
                t1 = time.perf_counter()
                first = session.execute_batch(batch)
                t2 = time.perf_counter()
                again = session.execute_batch(batch) if repeat else first
                t3 = time.perf_counter()
            except Exception as exc:  # a failed operation is a failure
                log.enabled = False
                checks.attempted += 1
                checks.fail(f"cycle {cycles}: {type(exc).__name__}: {exc}")
                continue
            log.enabled = False
            into.apply.append(t1 - t0)
            into.reserve.append(t2 - t1)
            into.cycle.append(t3 - t0)
            into.reference.append(harness.Speed.sample())
            into.windows.append((t0, t3))
            if repeat:
                for index, (a, b) in enumerate(zip(first, again)):
                    checks.expect(
                        f"cycle {cycles} repeat[{index}] equals first",
                        a is b or wire(a) == wire(b),
                    )
        cycles += 1
        if cycles == RSS_AFTER_CYCLES:
            rss = harness.peak_rss_mb()
    if rss is None:
        rss = harness.peak_rss_mb()
    return plain, measured, cycles, rss


def _churn_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    toy: bool,
    corrupt: bool,
    batch: Tuple,
    repeat: bool,
    prepare=None,
    drop: Sequence[str] = ("version",),
) -> Outcome:
    from repro.api import AnalysisService

    services = (TOY_SIZES if toy else SIZES)[name]
    outcome = Outcome(services)
    log = tracing.SpanLog()
    if traced:
        outcome.extras["missing_targets"] = tracing.install(log)
        outcome.span_log = log

    def build():
        service = AnalysisService(catalog(services))
        if prepare is not None:
            prepare(service)
        service.execute_batch(batch)
        return service

    setup_seconds, lanes = _setups(build, traced)
    outcome.setup_s = _median(setup_seconds)
    registries = [service.instrumentation.registry for service, _ in lanes]
    before = tracing.registry_totals(registries)
    plain, measured, cycles, outcome.peak_rss_mb = _mutate_and_reserve(
        seed, seconds, lanes, batch, repeat, outcome.checks, log
    )
    after = tracing.registry_totals(registries)

    # Each lane's final state, served by its maintained session, must
    # equal a scratch service built over that lane's final ecosystem.
    for lane, (service, _twin) in enumerate(lanes):
        compare_batches(
            outcome.checks,
            f"lane {lane} final vs scratch",
            service.execute_batch(batch),
            AnalysisService(service.ecosystem).execute_batch(batch),
            drop=drop,
            corrupt=corrupt and lane == 0,
        )

    outcome.serve_p50_ms = 1e3 * _median([
        harness.Speed.rescale(seconds, reference)
        for seconds, reference in zip(plain.reserve, plain.reference)
    ])
    outcome.serve_samples = len(plain.reserve)
    elapsed = sum(plain.cycle)
    outcome.metrics = [
        Metric("setup_s", outcome.setup_s, "s", len(setup_seconds)),
        Metric("peak_rss_mb", outcome.peak_rss_mb, "MB", 1,
               f"after {min(cycles, RSS_AFTER_CYCLES)} cycles"),
        Metric(
            "cycles_per_s",
            len(plain.cycle) / elapsed if elapsed else 0.0,
            "1/s",
            len(plain.cycle),
        ),
        *harness.timing_metrics("apply", plain.apply),
        *harness.timing_metrics("reserve", plain.reserve),
    ]
    outcome.extras["cycles"] = cycles
    outcome.extras["final_services"] = [len(service) for service, _ in lanes]
    if traced:
        outcome.units = len(measured.cycle)
        outcome.span_table = tracing.span_table(log)
        outcome.layers = tracing.layer_metrics(
            outcome.span_table,
            tracing.subtract(after, before),
            outcome.units,
            {
                "trace.overhead_ratio": (
                    sum(measured.cycle) / sum(plain.cycle)
                    if plain.cycle else 0.0
                ),
                "trace.coverage_ratio": tracing.coverage(
                    log, measured.windows
                ),
            },
        )
        page = outcome.span_table.get("streams.page", {}).get("seconds", 0.0)
        reserve = sum(measured.reserve)
        share = page / reserve if reserve else 0.0
        outcome.extras["answers"] = [
            f"streams.page_s is {share:.0%} of traced re-serve time: "
            f"{'most' if share > 0.5 else 'not most'} of reserve_*"
        ]
    return outcome


def churn_reserve(seed, seconds, traced, toy, corrupt) -> Outcome:
    """1000 services, three lanes: apply a lane's next seeded mutation,
    re-serve the Section-IV batch plus web dependency levels and the first
    Couple File and weak-edge pages, then serve it again from the cache."""
    from repro.api.queries import (
        ClosureQuery,
        CoupleFileQuery,
        DependencyLevelsQuery,
        EdgeSummaryQuery,
        LevelReportQuery,
        MeasurementQuery,
        WeakEdgeQuery,
    )
    from repro.model.factors import Platform

    batch = (
        LevelReportQuery(),
        DependencyLevelsQuery(platform=Platform.WEB),
        MeasurementQuery(),
        ClosureQuery(),
        EdgeSummaryQuery(),
        CoupleFileQuery(page_size=PAGE_SIZE),
        WeakEdgeQuery(page_size=PAGE_SIZE),
    )
    return _churn_workload(
        "churn_reserve", seed, seconds, traced, toy, corrupt, batch,
        repeat=True,
        drop=("version", "next_cursor"),
    )


def builtin_auth_upgrade(service) -> None:
    """One provider adopts the paper's built-in authentication."""
    from repro.defense.builtin_auth import BuiltinAuthUpgrade
    from repro.dynamic.events import ApplyHardening

    upgrade = BuiltinAuthUpgrade()
    target = "china_railway"
    if not service.ecosystem.has_service(target):  # toy catalogs
        target = upgrade.targets(service.ecosystem)[0]
    service.apply(ApplyHardening(transform=upgrade, services=(target,)))


def stream_churn(seed, seconds, traced, toy, corrupt) -> Outcome:
    """402 services after one built-in-auth upgrade: apply the next seeded
    mutation, re-serve the first Couple File and weak-edge pages."""
    from repro.api.queries import CoupleFileQuery, WeakEdgeQuery

    batch = (
        CoupleFileQuery(page_size=PAGE_SIZE),
        WeakEdgeQuery(page_size=PAGE_SIZE),
    )
    return _churn_workload(
        "stream_churn", seed, seconds, traced, toy, corrupt, batch,
        repeat=False,
        prepare=builtin_auth_upgrade,
        drop=("version", "next_cursor"),
    )
