"""The unified instrumentation layer (:mod:`repro.obs`).

Covers the primitives (histogram bucket-edge semantics, thread-safe
labeled counters, span nesting, exception tagging, ring-buffer
eviction, the no-op handle's per-op bound), the exporters (JSON
snapshot, Prometheus text parsed line by line, NDJSON span-log
round-trip plus the ``tools/obsreport.py`` renderer), and the
equality pinning of the four legacy stats surfaces -- which are thin
views over the registry now and must keep returning the exact numbers
they always did.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import (
    AnalysisService,
    ClosureQuery,
    CoupleFileQuery,
    EdgeSummaryQuery,
    LevelReportQuery,
    MeasurementQuery,
)
from repro.catalog import CatalogBuilder, CatalogSpec
from repro.dynamic import MutationStream
from repro.obs import (
    Histogram,
    Instrumentation,
    MetricsRegistry,
    NDJSONSpanWriter,
    Tracer,
    metrics_snapshot,
)
from repro.obs.report import load_ndjson, render_report
from repro.obs.selfcheck import parse_prometheus_lines


def _small_ecosystem(services=40, seed=7):
    return CatalogBuilder(
        CatalogSpec(total_services=services), seed=seed
    ).build_ecosystem()


def _mutate_and_serve(service, mutations=2, seed=2021):
    """A small real serve session: batch, mutate, re-serve, repeat."""
    workload = [
        LevelReportQuery(),
        MeasurementQuery(),
        ClosureQuery(),
        EdgeSummaryQuery(),
        CoupleFileQuery(max_size=3, page_size=10),
    ]
    service.execute_batch(workload)
    service.execute_batch(workload)  # warm repeat: all result-cache hits
    stream = MutationStream(seed=seed)
    for _ in range(mutations):
        service.apply(stream.next_mutation(service.ecosystem))
        service.execute_batch(workload)
    return workload


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------


class TestHistogram:
    def test_le_bucket_edges(self):
        h = Histogram((1, 2, 5))
        for value in (0, 1, 1.5, 2, 5, 7):
            h.observe(value)
        # le semantics: a value equal to an edge lands in that edge's
        # bucket; beyond the last edge is the implicit +Inf bucket.
        assert h.bucket_counts == (2, 2, 1, 1)
        assert h.count == 6
        assert h.sum == pytest.approx(16.5)

    def test_quantile_is_conservative_upper_edge(self):
        h = Histogram((1, 2, 5))
        for value in (0, 1, 1.5, 2, 5, 7):
            h.observe(value)
        assert h.quantile(0.5) == 2.0
        # Mass past the last edge cannot be resolved further than the
        # last edge.
        assert h.quantile(1.0) == 5.0
        assert Histogram((1,)).quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_edges_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram((1, 1, 2))
        with pytest.raises(ValueError):
            Histogram(())


class TestRegistry:
    def test_get_or_create_interns_families_and_children(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("kind",))
        assert registry.counter("c_total", labels=("kind",)) is family
        child = family.labels(kind="a")
        assert family.labels(kind="a") is child

    def test_redeclaration_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("kind",))
        with pytest.raises(ValueError):
            registry.gauge("m", labels=("kind",))
        with pytest.raises(ValueError):
            registry.counter("m")  # different label set
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1, 2, 3))

    def test_wrong_label_names_raise(self):
        registry = MetricsRegistry()
        family = registry.counter("m", labels=("kind",))
        with pytest.raises(ValueError):
            family.labels(flavor="a")

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("m").inc(-1)

    def test_value_reads_zero_for_untouched(self):
        registry = MetricsRegistry()
        assert registry.value("never_registered") == 0
        registry.counter("m", labels=("kind",))
        assert registry.value("m", {"kind": "a"}) == 0

    def test_threaded_labeled_counters_lose_nothing(self):
        registry = MetricsRegistry()
        family = registry.counter("m_total", labels=("kind",))
        per_thread, threads = 10_000, 8

        def worker(kind):
            child = family.labels(kind=kind)
            for _ in range(per_thread):
                child.inc()

        workers = [
            threading.Thread(target=worker, args=("even" if i % 2 else "odd",))
            for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        total = threads // 2 * per_thread
        assert registry.value("m_total", {"kind": "even"}) == total
        assert registry.value("m_total", {"kind": "odd"}) == total


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_lexically(self):
        tracer = Tracer()
        with tracer.span("outer", depth=0) as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        (root,) = tracer.recent()
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner"]
        assert root.duration_seconds >= inner.duration_seconds
        assert root.self_seconds >= 0.0
        assert root.attributes == {"depth": 0}

    def test_exception_tagging_does_not_swallow(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                raise ValueError("boom")
        (root,) = tracer.recent()
        assert root.error == "ValueError: boom"
        assert root.finished

    def test_ring_buffer_evicts_oldest_roots(self):
        tracer = Tracer(max_recent=3)
        for index in range(5):
            with tracer.span(f"root-{index}"):
                pass
        assert [span.name for span in tracer.recent()] == [
            "root-2",
            "root-3",
            "root-4",
        ]

    def test_to_dict_is_json_serializable(self):
        tracer = Tracer()
        with tracer.span("op", kind="closure", obj=object()) as span:
            span.set_attribute("count", 3)
        encoded = json.loads(json.dumps(tracer.recent()[0].to_dict()))
        assert encoded["name"] == "op"
        assert encoded["attributes"]["count"] == 3
        # Non-primitive attribute values are stringified, not rejected.
        assert isinstance(encoded["attributes"]["obj"], str)


class TestNoopHandle:
    def test_disabled_handle_is_inert_but_complete(self):
        obs = Instrumentation.disabled()
        counter = obs.counter("c_total", labels=("kind",)).labels(kind="a")
        counter.inc()
        assert counter.value == 0
        with obs.span("op") as span:
            span.set_attribute("k", "v")
        assert obs.snapshot() == {"metrics": {}, "recent_spans": []}
        assert obs.prometheus() == ""

    def test_noop_per_op_overhead_is_tiny(self):
        obs = Instrumentation.disabled()
        counter = obs.counter("c_total")
        ops = 100_000
        start = time.perf_counter()
        for _ in range(ops):
            counter.inc()
            with obs.span("op"):
                pass
        elapsed = time.perf_counter() - start
        # ~1.5us/op of pure interpreter overhead on slow hardware; the
        # bound only fires if the disabled path starts doing real work.
        assert elapsed / ops < 20e-6, (
            f"no-op instrumentation costs {elapsed / ops * 1e6:.2f}us/op"
        )


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def test_snapshot_shape_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter", labels=("kind",)).labels(
            kind="x"
        ).inc(3)
        hist = registry.histogram("h", "a histogram", buckets=(1, 2))
        for value in (0.5, 1.5, 9):
            hist.observe(value)
        snapshot = json.loads(json.dumps(metrics_snapshot(registry)))
        assert snapshot["c_total"]["type"] == "counter"
        assert snapshot["c_total"]["samples"] == [
            {"labels": {"kind": "x"}, "value": 3}
        ]
        (sample,) = snapshot["h"]["samples"]
        assert sample["buckets"] == {"1.0": 1, "2.0": 2, "+Inf": 3}
        assert sample["count"] == 3

    def test_prometheus_parses_line_by_line(self):
        ecosystem = _small_ecosystem()
        service = AnalysisService(ecosystem)
        _mutate_and_serve(service, mutations=1)
        text = service.prometheus_metrics()
        samples, metas = parse_prometheus_lines(text.rstrip("\n"))
        assert samples and metas
        joined = "\n".join(samples)
        assert "repro_api_queries_total{" in joined
        assert "repro_session_apply_seconds_bucket{" in joined
        assert "repro_session_apply_seconds_sum" in joined
        assert "repro_session_apply_seconds_count" in joined
        assert 'le="+Inf"' in joined

    def test_prometheus_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_lines("not a metric line")
        with pytest.raises(ValueError):
            parse_prometheus_lines('m{unclosed="x' + '"')


class TestNDJSONRoundTrip:
    def test_span_log_from_real_session_renders_report(self, tmp_path):
        log_path = str(tmp_path / "run.ndjson")
        service = AnalysisService(_small_ecosystem())
        writer = service.instrumentation.log_spans_to(log_path)
        try:
            _mutate_and_serve(service, mutations=2)
            writer.write_snapshot()
        finally:
            writer.close()

        spans, snapshots = load_ndjson(log_path)
        assert spans and len(snapshots) == 1
        names = {span["name"] for span in spans}
        assert {"api.plan", "api.run", "api.apply"} <= names
        # The api.apply tree nests the session's engine spans.
        apply_roots = [s for s in spans if s["name"] == "api.apply"]
        nested = {
            child["name"]
            for root in apply_roots
            for child in root["children"]
        }
        assert "session.apply" in nested
        assert "repro_api_queries_total" in snapshots[0]

        report = render_report(spans, snapshots)
        assert "top spans by self-time" in report
        assert "cache efficacy" in report
        assert "invalidation-cone distribution" in report
        assert "api queries (hit / computed)" in report

    def test_writer_accepts_open_file_without_owning_it(self, tmp_path):
        path = tmp_path / "log.ndjson"
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        with open(path, "w", encoding="utf-8") as handle:
            writer = NDJSONSpanWriter(handle)
            writer.write_snapshot(registry)
            writer.close()
            assert not handle.closed
        _spans, snapshots = load_ndjson(str(path))
        assert snapshots[0]["c_total"]["samples"][0]["value"] == 1


# ----------------------------------------------------------------------
# The serving stack: one registry, thin legacy views, full snapshot
# ----------------------------------------------------------------------


class TestServiceObservability:
    def test_legacy_stats_surfaces_equal_registry_values(self):
        service = AnalysisService(_small_ecosystem())
        _mutate_and_serve(service, mutations=2)
        registry = service.instrumentation.registry

        stats = service.cache_stats()
        assert stats.hits == registry.value("repro_result_cache_hits_total")
        assert stats.misses == registry.value(
            "repro_result_cache_misses_total"
        )
        for value in (stats.hits, stats.misses, stats.entries):
            assert isinstance(value, int)

        for label in service.attackers:
            graph = service.session.graph(label)
            by = {"attacker": label}
            closure = graph.closure_cache_stats()
            assert closure["hits"] == registry.value(
                "repro_closure_cache_hits_total", by
            )
            assert closure["computes"] == registry.value(
                "repro_closure_cache_computes_total", by
            )
            assert closure["resumes"] == registry.value(
                "repro_closure_cache_resumes_total", by
            )
            assert closure["revalidations"] == registry.value(
                "repro_closure_cache_revalidations_total", by
            )
            parents = graph.parents_view().stats()
            assert parents["retractions"] == registry.value(
                "repro_parents_retractions_total", by
            )
            assert parents["derivations"] == registry.value(
                "repro_parents_derivations_total", by
            )
            streams = graph.streams_engine().stats()
            assert streams["computed"] == registry.value(
                "repro_stream_segments_computed_total", by
            )
            assert streams["reused"] == registry.value(
                "repro_stream_segments_reused_total", by
            )
            assert streams["invalidated"] == registry.value(
                "repro_stream_segments_invalidated_total", by
            )

    def test_closure_spans_count_tests_and_time_revalidation(self):
        service = AnalysisService(_small_ecosystem())
        _mutate_and_serve(service, mutations=2)

        def walk(span, parent=None):
            yield span, parent
            for child in span["children"]:
                yield from walk(child, span)

        spans = [
            pair
            for root in service.instrumentation.tracer.recent()
            for pair in walk(root.to_dict())
        ]
        runs = [span for span, _ in spans if span["name"] == "closure.run"]
        assert runs
        assert all(
            isinstance(span["attributes"]["takeover_tests"], int)
            for span in runs
        )
        assert max(span["attributes"]["takeover_tests"] for span in runs) > 0
        # Revalidation is a phase of the mutation's apply path, labelled
        # by attacker only.
        revalidations = [
            (span, parent)
            for span, parent in spans
            if span["name"] == "closure.revalidate"
        ]
        assert revalidations
        for span, parent in revalidations:
            assert span["attributes"] == {"attacker": service.primary_attacker}
            assert parent["name"] == "session.apply"

    def test_warm_repeat_counts_as_api_hits(self):
        service = AnalysisService(_small_ecosystem())
        workload = [LevelReportQuery(), MeasurementQuery()]
        service.execute_batch(workload)
        service.execute_batch(workload)
        registry = service.instrumentation.registry
        hits = sum(
            child.value
            for labels, child in registry.get(
                "repro_api_queries_total"
            ).samples()
            if labels["outcome"] == "hit"
        )
        assert hits == len(workload)

    def test_observability_snapshot_covers_five_layers(self):
        service = AnalysisService(_small_ecosystem())
        _mutate_and_serve(service, mutations=2)
        snapshot = service.observability_snapshot()
        json.dumps(snapshot)  # must round-trip
        assert set(snapshot["layers"]) == {
            "result_cache",
            "closure",
            "levels",
            "parents",
            "streams",
        }
        label = service.primary_attacker
        assert snapshot["layers"]["levels"][label]["flushes"] >= 1
        assert snapshot["layers"]["parents"][label]["derivations"] >= 1
        assert snapshot["layers"]["streams"][label]["computed"] >= 1
        assert snapshot["layers"]["result_cache"]["hits"] >= 1
        assert snapshot["version"] == service.version
        metrics = snapshot["metrics"]
        assert "repro_session_mutations_total" in metrics
        assert "repro_invalidation_cone_services" in metrics
        assert "repro_levels_touched_signatures" in metrics
        assert any(
            span["name"] == "api.run" for span in snapshot["recent_spans"]
        )

    def test_disabled_handle_keeps_results_identical(self):
        ecosystem = _small_ecosystem()
        enabled = AnalysisService(ecosystem)
        disabled = AnalysisService(
            ecosystem, instrumentation=Instrumentation.disabled()
        )
        workload = _mutate_and_serve(enabled, mutations=2)
        _mutate_and_serve(disabled, mutations=2)
        assert enabled.execute_batch(workload) == disabled.execute_batch(
            workload
        )
        # The thin views still answer, reading zeros off the null registry.
        assert disabled.cache_stats().hits == 0
        assert disabled.closure_cache_stats()["computes"] == 0
        assert disabled.observability_snapshot()["metrics"] == {}

    def test_obsreport_cli_renders_real_session_log(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        log_path = str(tmp_path / "run.ndjson")
        service = AnalysisService(_small_ecosystem())
        writer = service.instrumentation.log_spans_to(log_path)
        try:
            _mutate_and_serve(service, mutations=1)
            writer.write_snapshot()
        finally:
            writer.close()
        completed = subprocess.run(
            [sys.executable, str(repo_root / "tools" / "obsreport.py"),
             log_path, "--top", "5"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo_root / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        assert "top spans by self-time" in completed.stdout
        assert "cache efficacy" in completed.stdout
