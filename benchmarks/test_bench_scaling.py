"""Scalability of the ActFort pipeline (supports the paper's future-work
note about automating measurement of larger ecosystems).

Sweeps the ecosystem size and times the dependency-level analysis (the
paper's Section IV-B payload) under **both** TDG engines:

- *old*: :class:`repro.core.reference.ReferenceTDG`, the seed's brute-force
  all-pairs scans, kept as the differential-testing oracle;
- *new*: the indexed :class:`repro.core.tdg.TransformationDependencyGraph`.

The old engine is swept up to the paper-doubling 402 tier; the indexed
engine additionally runs a 1000-service tier the seed could not touch
interactively.  Timings are printed as a table and written as
machine-readable JSON to ``BENCH_scaling.json`` at the repo root for the
``BENCH_*.json`` trajectory.
"""

import json
import multiprocessing
import os
import pathlib
import statistics
import time

import pytest

from repro.api import (
    AnalysisService,
    ClosureQuery,
    CoupleFileQuery,
    DependencyLevelsQuery,
    EdgeSummaryQuery,
    LevelReportQuery,
    MeasurementQuery,
    WeakEdgeQuery,
)
from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.core.reference import ReferenceTDG
from repro.core.tdg import TransformationDependencyGraph
from repro.dynamic import MutationStream
from repro.model.attacker import AttackerProfile
from repro.model.factors import Platform
from repro.utils.tables import format_table

#: Sizes both engines run; the seed's quadratic-to-cubic scans stay
#: tolerable up to the 402 doubling tier.
COMPARED_SIZES = (51, 101, 201, 402)

#: Indexed-engine-only tier (the reference needs minutes there).
NEW_ONLY_SIZES = (1000,)

#: The 402-tier acceptance floor for the refactor.
REQUIRED_SPEEDUP_402 = 3.0

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scaling.json"

#: ``make bench-quick``: only the paper-tier (<=402) engine comparison
#: runs; the 1000-service serving tiers and the big tiers are skipped.
QUICK = bool(os.environ.get("BENCH_QUICK"))

#: ``BENCH_FULL=1`` additionally runs the 30k big tier (minutes of
#: single-core fixpoint work; the 10k tier always runs outside quick
#: mode).
FULL = bool(os.environ.get("BENCH_FULL"))


def _build_nodes(size):
    spec = CatalogSpec(total_services=size)
    ecosystem = CatalogBuilder(spec, seed=2021).build_ecosystem()
    return tuple(
        TransformationDependencyGraph.node_from_profile(p) for p in ecosystem
    )


def _payload(graph):
    """The benchmarked analysis: Section IV-B dependency levels."""
    graph.level_fractions(Platform.WEB)


def _time_engine(engine_cls, nodes):
    graph = engine_cls(nodes, AttackerProfile.baseline())
    start = time.perf_counter()
    _payload(graph)
    return time.perf_counter() - start


def test_bench_actfort_scaling(benchmark):
    all_sizes = COMPARED_SIZES + (() if QUICK else NEW_ONLY_SIZES)
    nodes_by_size = {size: _build_nodes(size) for size in all_sizes}

    benchmark.pedantic(
        lambda: _payload(
            TransformationDependencyGraph(
                nodes_by_size[201], AttackerProfile.baseline()
            )
        ),
        rounds=3,
        iterations=1,
    )

    old_seconds = {}
    new_seconds = {}
    for size in COMPARED_SIZES:
        old_seconds[size] = _time_engine(ReferenceTDG, nodes_by_size[size])
    for size in all_sizes:
        new_seconds[size] = _time_engine(
            TransformationDependencyGraph, nodes_by_size[size]
        )

    rows = []
    speedup = {}
    for size in all_sizes:
        old = old_seconds.get(size)
        new = new_seconds[size]
        if old is not None:
            speedup[size] = old / new if new > 0 else float("inf")
        rows.append(
            (
                size,
                f"{old:.3f}s" if old is not None else "-",
                f"{new:.3f}s",
                f"{speedup[size]:.1f}x" if size in speedup else "-",
            )
        )
    print(
        "\n"
        + format_table(
            ("services", "old (reference)", "new (indexed)", "speedup"),
            rows,
            title="TDG dependency-level analysis, old vs new engine",
        )
    )

    payload = {
        "payload": "dependency-level fractions (web), baseline attacker",
        "sizes": list(all_sizes),
        "old_seconds": {str(k): v for k, v in old_seconds.items()},
        "new_seconds": {str(k): v for k, v in new_seconds.items()},
        "speedup": {str(k): v for k, v in speedup.items()},
    }
    # Read-modify-write: other benchmarks (the churn tier) contribute
    # their own sections to the same trajectory file.  Quick mode is a
    # smoke run, not the trajectory -- it must not overwrite the full
    # sweep's sections with a truncated size list.
    if not QUICK:
        merged = {}
        if JSON_PATH.exists():
            try:
                merged = json.loads(JSON_PATH.read_text())
            except ValueError:
                merged = {}
        merged.update(payload)
        JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    benchmark.extra_info["scaling"] = payload

    # Acceptance: the indexed engine is >= 3x the seed at the 402 tier, the
    # paper-scale analysis stays interactive, and the new 1000-service tier
    # completes in interactive time at all.
    assert speedup[402] >= REQUIRED_SPEEDUP_402, speedup
    assert new_seconds[201] < 30.0
    if not QUICK:
        assert new_seconds[1000] < 30.0


# ----------------------------------------------------------------------
# api_serve tier: the AnalysisService facade as a serving layer
# ----------------------------------------------------------------------

#: The serving tier size (matches the churn/serve tiers).
API_SERVE_SIZE = 1000

#: Warm repetitions of the workload (the steady serving state).
WARM_ROUNDS = 5

#: Mutation/re-query cycles measured after the warm phase.
MUTATION_CYCLES = 5

#: Acceptance floor: a warm repeated batch must be served from the
#: version-keyed result cache (the hard >=10x contract lives in
#: ``tests/test_perf_smoke.py`` at the 402 tier).
REQUIRED_WARM_SPEEDUP = 10.0

#: Re-serving after a mutation must stay segment-splice work (tens of
#: ms measured; this generous ceiling only fires when the incremental
#: stream/measurement serving degrades back to re-enumeration).
MAX_REQUERY_SECONDS = 1.0


def _instrumentation_summary(service):
    """The serving tier's observability digest for ``BENCH_scaling.json``.

    Everything reads off the service's one
    :class:`~repro.obs.Instrumentation` registry: cache efficacy of
    every engine cache, and bucket-resolution quantiles of the
    invalidation-cone histogram (how many services each mutation's
    delta actually reached)."""
    registry = service.instrumentation.registry
    label = service.primary_attacker
    by = {"attacker": label}
    stats = service.cache_stats()
    cone_quantiles = {}
    cone_family = registry.get("repro_invalidation_cone_services")
    if cone_family is not None:
        for labels, child in cone_family.samples():
            if labels.get("attacker") == label and child.count:
                cone_quantiles = {
                    "count": child.count,
                    "mean": child.sum / child.count,
                    "p50_le": child.quantile(0.5),
                    "p90_le": child.quantile(0.9),
                    "p100_le": child.quantile(1.0),
                }
    return {
        "result_cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
        },
        "closure_cache": dict(service.closure_cache_stats()),
        "stream_segments": {
            "computed": int(
                registry.value("repro_stream_segments_computed_total", by)
            ),
            "reused": int(
                registry.value("repro_stream_segments_reused_total", by)
            ),
            "invalidated": int(
                registry.value("repro_stream_segments_invalidated_total", by)
            ),
        },
        "parents": {
            "derivations": int(
                registry.value("repro_parents_derivations_total", by)
            ),
            "retractions": int(
                registry.value("repro_parents_retractions_total", by)
            ),
        },
        "levels_flushes": int(
            registry.value("repro_levels_flushes_total", by)
        ),
        "invalidation_cone_services": cone_quantiles,
    }


def _api_workload():
    """A mixed serving workload: levels (both shapes), full measurement,
    forward closure, edge counts, and one page of each record stream.

    Stream pages are modest: a weak-edge page needs *distinct* edges, and
    every additional service it touches buys that service's residual-
    signature enumeration -- the first page is the honest cold cost of
    the couple machinery at this tier, not an output-bound full scan."""
    return (
        LevelReportQuery(),
        DependencyLevelsQuery(platform=Platform.WEB),
        MeasurementQuery(),
        ClosureQuery(),
        EdgeSummaryQuery(),
        CoupleFileQuery(page_size=128),
        WeakEdgeQuery(page_size=128),
    )


@pytest.mark.skipif(QUICK, reason="BENCH_QUICK runs the 402 tier only")
def test_bench_api_serve(benchmark):
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=API_SERVE_SIZE), seed=2021
    ).build_ecosystem()
    service = AnalysisService(ecosystem)
    workload = _api_workload()

    start = time.perf_counter()
    cold_results = service.execute_batch(workload)
    cold = time.perf_counter() - start

    warm_seconds = []
    for _ in range(WARM_ROUNDS):
        start = time.perf_counter()
        warm_results = service.execute_batch(workload)
        warm_seconds.append(time.perf_counter() - start)
    assert warm_results == cold_results
    warm = statistics.median(warm_seconds)

    # The post-mutation re-serve: every cycle routes one mutation through
    # the incremental engines (new version -> cache keys miss) and re-runs
    # the whole batch against warm engine state.
    stream = MutationStream(seed=2021)
    mutate_seconds = []
    requery_seconds = []
    for _ in range(MUTATION_CYCLES):
        mutation = stream.next_mutation(service.ecosystem)
        start = time.perf_counter()
        service.apply(mutation)
        mutate_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        service.execute_batch(workload)
        requery_seconds.append(time.perf_counter() - start)

    benchmark.pedantic(
        lambda: service.execute_batch(workload), rounds=3, iterations=1
    )

    warm_speedup = cold / warm if warm else float("inf")
    requery_median = statistics.median(requery_seconds)
    stats = service.cache_stats()
    rows = [
        ("services", str(API_SERVE_SIZE)),
        ("queries per batch", str(len(workload))),
        ("cold batch", f"{cold * 1e3:.1f}ms"),
        ("warm batch (median)", f"{warm * 1e6:.0f}us"),
        ("cold vs warm", f"{warm_speedup:.0f}x"),
        ("mutation absorb (median)",
         f"{statistics.median(mutate_seconds) * 1e3:.2f}ms"),
        ("re-serve after mutation (median)",
         f"{requery_median * 1e3:.1f}ms"),
        ("cache hit rate", f"{100 * stats.hit_rate:.0f}%"),
    ]
    print(
        "\n"
        + format_table(
            ("metric", "value"),
            rows,
            title=f"api_serve tier at {API_SERVE_SIZE} services",
        )
    )

    payload = {
        "size": API_SERVE_SIZE,
        "queries_per_batch": len(workload),
        "cold_batch_seconds": cold,
        "warm_batch_median_seconds": warm,
        "warm_speedup": warm_speedup,
        "mutation_median_seconds": statistics.median(mutate_seconds),
        "requery_after_mutation_median_seconds": requery_median,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "instrumentation": _instrumentation_summary(service),
    }
    merged = {}
    if JSON_PATH.exists():
        try:
            merged = json.loads(JSON_PATH.read_text())
        except ValueError:
            merged = {}
    merged["api_serve"] = payload
    JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    benchmark.extra_info["api_serve"] = payload

    assert warm_speedup >= REQUIRED_WARM_SPEEDUP, payload
    # The incremental serve path's acceptance at this tier: re-serving
    # the mixed batch after a mutation is spliced-segment work (tens of
    # ms), never a from-scratch re-enumeration (seconds).
    assert requery_median < MAX_REQUERY_SECONDS, payload


# ----------------------------------------------------------------------
# closure_churn tier: ClosureQuery re-serves under support-reaching churn
# ----------------------------------------------------------------------

#: The closure-churn tier size (matches the api_serve tier).
CLOSURE_CHURN_SIZE = 1000

#: Support-reaching mutations measured (non-reaching churn is served by
#: the survive/patch path and measured implicitly by ``api_serve``).
REACHING_CYCLES = 6

#: Ceiling on mutations streamed while hunting reaching ones.
MAX_STREAMED_MUTATIONS = 80


@pytest.mark.skipif(QUICK, reason="BENCH_QUICK runs the 402 tier only")
def test_bench_closure_churn(benchmark):
    """Re-serving ``ClosureQuery`` after mutations that *reach* the cached
    closure's compromised support set.

    Each reaching mutation marks the graph-level support record dirty;
    the re-serve resumes the PAV fixpoint from the recorded per-round
    postings (reused rounds + re-tested touched services).  The
    comparator drops the closure cache and re-runs the scratch fixpoint
    over the same mutated graph, which is exactly what every reaching
    delta cost before the incremental engine."""
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=CLOSURE_CHURN_SIZE), seed=2021
    ).build_ecosystem()
    service = AnalysisService(ecosystem)
    query = ClosureQuery()
    service.execute_batch([query])  # prime the support record
    graph = service.session.graph(service.primary_attacker)

    resume_seconds = []
    scratch_seconds = []
    streamed = 0
    stream = MutationStream(seed=2021)
    while (
        len(resume_seconds) < REACHING_CYCLES
        and streamed < MAX_STREAMED_MUTATIONS
    ):
        mutation = stream.next_mutation(service.ecosystem)
        marked = graph.closure_cache_stats()["revalidations"]
        service.apply(mutation)
        streamed += 1
        if graph.closure_cache_stats()["revalidations"] == marked:
            service.execute_batch([query])  # keep the record warm
            continue
        start = time.perf_counter()
        service.execute_batch([query])
        resume_seconds.append(time.perf_counter() - start)
        graph.reset_closure_cache()
        start = time.perf_counter()
        graph_closure = service.session.forward_closure()
        scratch_seconds.append(time.perf_counter() - start)
        assert graph_closure is not None

    benchmark.pedantic(
        lambda: service.execute_batch([query]), rounds=3, iterations=1
    )

    assert len(resume_seconds) >= 3, (
        f"only {len(resume_seconds)} reaching mutations in "
        f"{streamed} streamed"
    )
    resume = statistics.median(resume_seconds)
    scratch = statistics.median(scratch_seconds)
    speedup = scratch / resume if resume else float("inf")
    stats = graph.closure_cache_stats()
    rows = [
        ("services", str(CLOSURE_CHURN_SIZE)),
        ("reaching mutations", str(len(resume_seconds))),
        ("mutations streamed", str(streamed)),
        ("re-serve, resumed fixpoint (median)", f"{resume * 1e3:.2f}ms"),
        ("scratch fixpoint (median)", f"{scratch * 1e3:.2f}ms"),
        ("resume vs scratch", f"{speedup:.1f}x"),
        ("closure resumes", str(stats["resumes"])),
        ("closure computes", str(stats["computes"])),
    ]
    print(
        "\n"
        + format_table(
            ("metric", "value"),
            rows,
            title=f"closure_churn tier at {CLOSURE_CHURN_SIZE} services",
        )
    )

    payload = {
        "size": CLOSURE_CHURN_SIZE,
        "reaching_mutations": len(resume_seconds),
        "mutations_streamed": streamed,
        "reserve_resumed_median_seconds": resume,
        "scratch_fixpoint_median_seconds": scratch,
        "resume_speedup": speedup,
        "closure_resumes": stats["resumes"],
        "closure_computes": stats["computes"],
        "instrumentation": _instrumentation_summary(service),
    }
    merged = {}
    if JSON_PATH.exists():
        try:
            merged = json.loads(JSON_PATH.read_text())
        except ValueError:
            merged = {}
    merged["closure_churn"] = payload
    JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    benchmark.extra_info["closure_churn"] = payload

    # Acceptance at this tier mirrors the 402 smoke gate: resuming from
    # the support postings must beat the scratch fixpoint decisively.
    assert speedup >= 3.0, payload


# ----------------------------------------------------------------------
# big_tiers: 10k/30k cold build, churn, re-serve, and peak RSS
# ----------------------------------------------------------------------

#: Sizes the id-compacted core targets.  The 30k tier is minutes of
#: single-core fixpoint work, so it only runs under ``BENCH_FULL=1``.
BIG_TIERS = (10_000,) + ((30_000,) if FULL else ())

#: Mutation/re-serve cycles measured per big tier.
BIG_TIER_CYCLES = 5


def _run_big_tier(size, conn):
    """One big tier, measured inside a forked child so its peak RSS is
    the tier's own high-water mark (``ru_maxrss`` is monotone per
    process -- measuring tiers in one process would report the largest
    tier's footprint for every tier)."""
    import resource

    from repro.dynamic import MutationStream

    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=size), seed=2021
    ).build_ecosystem()

    start = time.perf_counter()
    service = AnalysisService(ecosystem)
    cold_build = time.perf_counter() - start

    # Levels + measurement: the Section IV payload.  The edge streams
    # stay out -- a 10k weak-edge enumeration is output-bound (millions
    # of couples), which would swamp what this tier measures.
    workload = (LevelReportQuery(), MeasurementQuery())
    start = time.perf_counter()
    service.execute_batch(workload)
    first_serve = time.perf_counter() - start

    stream = MutationStream(seed=2021)
    mutate_seconds = []
    requery_seconds = []
    for _ in range(BIG_TIER_CYCLES):
        mutation = stream.next_mutation(service.ecosystem)
        start = time.perf_counter()
        service.apply(mutation)
        mutate_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        service.execute_batch(workload)
        requery_seconds.append(time.perf_counter() - start)

    interners = service.session.interner_stats()
    conn.send(
        {
            "size": size,
            "cold_build_seconds": cold_build,
            "first_serve_seconds": first_serve,
            "mutation_median_seconds": statistics.median(mutate_seconds),
            "reserve_median_seconds": statistics.median(requery_seconds),
            "reserve_max_seconds": max(requery_seconds),
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
            "service_ids_high_water": interners["services"]["high_water"],
        }
    )
    conn.close()


@pytest.mark.skipif(QUICK, reason="BENCH_QUICK runs the 402 tier only")
def test_bench_big_tiers(benchmark):
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    tiers = []
    for size in BIG_TIERS:
        parent_conn, child_conn = context.Pipe(duplex=False)
        child = context.Process(
            target=_run_big_tier, args=(size, child_conn)
        )
        child.start()
        child_conn.close()
        result = parent_conn.recv()
        child.join()
        assert child.exitcode == 0
        tiers.append(result)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = [
        (
            tier["size"],
            f"{tier['cold_build_seconds']:.2f}s",
            f"{tier['first_serve_seconds']:.2f}s",
            f"{tier['mutation_median_seconds'] * 1e3:.2f}ms",
            f"{tier['reserve_median_seconds'] * 1e3:.1f}ms",
            f"{tier['reserve_max_seconds'] * 1e3:.1f}ms",
            f"{tier['peak_rss_kb'] / 1024:.0f}MB",
        )
        for tier in tiers
    ]
    print(
        "\n"
        + format_table(
            (
                "services",
                "cold build",
                "first serve",
                "mutation (median)",
                "re-serve (median)",
                "re-serve (max)",
                "peak RSS",
            ),
            rows,
            title="big tiers: id-compacted core",
        )
    )

    merged = {}
    if JSON_PATH.exists():
        try:
            merged = json.loads(JSON_PATH.read_text())
        except ValueError:
            merged = {}
    existing = {
        str(tier["size"]): tier
        for tier in merged.get("big_tiers", {}).values()
    } if isinstance(merged.get("big_tiers"), dict) else {}
    existing.update({str(tier["size"]): tier for tier in tiers})
    merged["big_tiers"] = existing
    JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    benchmark.extra_info["big_tiers"] = existing

    # Acceptance: the 10k tier stays a live serving system -- cold build
    # in interactive time, churn absorbed in sub-second splices, the
    # post-mutation re-serve never re-running the cold fixpoint, and both
    # the first serve and the worst re-serve cycle inside their gates.
    ten_k = next(tier for tier in tiers if tier["size"] == 10_000)
    assert ten_k["cold_build_seconds"] < 60.0, ten_k
    assert ten_k["mutation_median_seconds"] < 1.0, ten_k
    assert ten_k["reserve_median_seconds"] < ten_k["first_serve_seconds"], ten_k
    assert ten_k["first_serve_seconds"] < 8.0, ten_k
    assert ten_k["reserve_max_seconds"] < 2.0, ten_k
