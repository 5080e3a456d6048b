"""Spans around the public entry points of each layer, from outside ``src``.

The traced run installs wrappers (:func:`install`) on the calls listed in
:data:`TARGETS`; each wrapper records one span -- name, start, end,
parent span, request id, thread -- into an in-memory :class:`SpanLog`
while the log is enabled, and calls straight through while it is not.
The log is written out once, when the run ends.  Nothing here edits the
program: the wrappers are attribute swaps made in the benchmark's own
process (and, for ``http_tenant``, in the server process its launcher
starts).

A span's self time is its duration minus the part of it that its child
spans cover.  Layer metrics report the *outermost* span of each name, so
a layer entered recursively is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, attribute path, span name, record-only-when predicate).  The
#: predicates skip memo-hit calls of lazy accessors, whose spans would
#: be pure overhead; they read private state, so they tolerate its
#: absence.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.authproc", "AuthenticationProcess.analyze_profile",
     "core.reports", None),
    ("repro.core.collection", "PersonalInfoCollection.collect_from_profile",
     "core.reports", None),
    ("repro.core.tdg", "TransformationDependencyGraph.nodes_from_reports",
     "core.tdg_build", None),
    ("repro.core.tdg", "TransformationDependencyGraph.analyze_many",
     "core.tdg_build", None),
    ("repro.core.tdg", "TransformationDependencyGraph.attacker_index",
     "core.tdg_build",
     lambda args: getattr(args[0], "_attacker_index", 1) is None),
    ("repro.core.strategy", "StrategyEngine.forward_closure",
     "core.closure", None),
    ("repro.core.tdg", "TransformationDependencyGraph.strong_edge_count",
     "core.edge_count", None),
    ("repro.core.tdg", "TransformationDependencyGraph.levels_report",
     "levels.flush", None),
    ("repro.core.tdg", "TransformationDependencyGraph.dependency_levels",
     "levels.flush", None),
    ("repro.dynamic.session", "DynamicAnalysisSession.measurement",
     "analysis.measurement", None),
    ("repro.streams.segments", "RecordStreamEngine.page",
     "streams.page", None),
    ("repro.dynamic.session", "DynamicAnalysisSession.__init__",
     "dynamic.build", None),
    ("repro.dynamic.session", "DynamicAnalysisSession.mutate",
     "dynamic.apply", None),
    ("repro.api.service", "AnalysisService.restore",
     "dynamic.restore", None),
    ("repro.dynamic.session", "DynamicAnalysisSession._materialize",
     "dynamic.materialize",
     lambda args: getattr(args[0], "_graphs", 1) is None),
    ("repro.api.service", "AnalysisService.snapshot",
     "dynamic.snapshot", None),
    ("repro.api.service", "AnalysisService.plan", "api.plan", None),
    ("repro.api.service", "AnalysisService.run", "api.run", None),
    ("repro.api.service", "AnalysisService.execute_batch",
     "api.execute_batch", None),
    ("repro.api.service", "AnalysisService.apply", "api.apply", None),
    ("repro.api.wire", "result_to_dict", "api.wire", None),
    ("repro.api.wire", "query_from_dict", "api.wire", None),
    ("repro.serve.server", "result_to_dict", "api.wire", None),
    ("repro.serve.server", "query_from_dict", "api.wire", None),
    ("repro.serve.server", "mutation_from_dict", "api.wire", None),
    ("repro.serve.server", "_Response.body", "api.wire", None),
    ("repro.serve.server", "AnalysisServer._handle", "serve.request", None),
    ("repro.serve.admission", "_AdmissionTicket.__enter__",
     "serve.admission", None),
    ("repro.serve.shard", "Shard.execute", "serve.shard_call", None),
    ("repro.serve.shard", "Shard.apply", "serve.shard_call", None),
    ("repro.serve.audit", "AuditLog.record", "serve.audit", None),
)

#: Span names whose time on a shard worker thread is that worker's
#: service time (what ``serve.shard_busy_s`` sums).
SHARD_SERVICE_SPANS = ("api.execute_batch", "api.apply", "dynamic.snapshot")

#: Per-layer metric -> the span name whose outermost time it reports.
SPAN_SECONDS = {
    "core.reports_s": "core.reports",
    "core.tdg_build_s": "core.tdg_build",
    "core.closure_s": "core.closure",
    "core.edge_count_s": "core.edge_count",
    "levels.flush_s": "levels.flush",
    "analysis.measurement_s": "analysis.measurement",
    "streams.page_s": "streams.page",
    "dynamic.build_s": "dynamic.build",
    "dynamic.apply_s": "dynamic.apply",
    "dynamic.restore_s": "dynamic.restore",
    "dynamic.materialize_s": "dynamic.materialize",
    "dynamic.snapshot_s": "dynamic.snapshot",
    "api.plan_s": "api.plan",
    "api.run_s": "api.run",
    "api.wire_s": "api.wire",
    "serve.admission_wait_s": "serve.admission",
    "serve.audit_s": "serve.audit",
}

#: Per-layer metric -> the span name whose outermost calls it counts.
SPAN_CALLS = {
    "core.reports_calls": "core.reports",
    "streams.pages": "streams.page",
}

#: Per-layer metric -> the program's own registry counter it reads.
REGISTRY_COUNTERS = {
    "core.closure_computes": "repro_closure_cache_computes_total",
    "core.closure_resumes": "repro_closure_cache_resumes_total",
    "core.closure_hits": "repro_closure_cache_hits_total",
    "levels.flushes": "repro_levels_flushes_total",
    "levels.scratch_builds": "repro_levels_scratch_builds_total",
    "levels.rederivations": "repro_levels_rederivations_total",
    "levels.retractions": "repro_levels_retractions_total",
    "levels.parents_derivations": "repro_parents_derivations_total",
    "levels.parents_retractions": "repro_parents_retractions_total",
    "streams.segments_computed": "repro_stream_segments_computed_total",
    "streams.segments_reused": "repro_stream_segments_reused_total",
    "streams.segments_invalidated": "repro_stream_segments_invalidated_total",
    "api.cache_hits": "repro_result_cache_hits_total",
    "api.cache_misses": "repro_result_cache_misses_total",
    "api.cache_evictions": "repro_result_cache_evictions_total",
    "serve.coalesced_batches": "repro_serve_query_batches_coalesced_total",
    "serve.dead_letters": "repro_serve_dead_letters_total",
}

#: Registry series read only to form ratios.
_RATIO_SERIES = (
    "repro_closure_rounds_reused_total",
    "repro_closure_rounds_scanned_total",
)
_CONE_HISTOGRAM = "repro_invalidation_cone_services"

#: Metrics supplied by the workload itself (client-side counts and the
#: trace's own figures), with their units.
WORKLOAD_SUPPLIED = {
    "dynamic.snapshot_bytes": "bytes",
    "api.wire_bytes": "bytes/op",
    "serve.shard_wait_s": "s/op",
    "serve.shard_busy_s": "s/op",
    "serve.wire_gap_s": "s/op",
    "serve.retries": "count/op",
    "serve.status_4xx": "count/op",
    "serve.status_5xx": "count/op",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}

RATIOS = (
    "core.closure_rounds_reused_ratio",
    "streams.segment_reuse_ratio",
    "api.cache_hit_ratio",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> its unit, in report order."""
    units: Dict[str, str] = {}
    for name in SPAN_SECONDS:
        units[name] = "s/op"
    for name in SPAN_CALLS:
        units[name] = "count/op"
    for name in REGISTRY_COUNTERS:
        units[name] = "count/op"
    units["dynamic.invalidation_cone_services"] = "services"
    for name in RATIOS:
        units[name] = "ratio"
    units.update(WORKLOAD_SUPPLIED)
    return dict(sorted(units.items()))


class SpanLog:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.enabled = False
        #: [name, start, end, parent index, request id, thread name]
        self.spans: List[List[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: The id of the request in flight; worker-thread spans take it
        #: (the load is one closed-loop client, so at most one is).
        self.request_in_flight: Optional[str] = None

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        request_id = (
            self.spans[parent][4] if parent >= 0 else self.request_in_flight
        )
        entry = [
            name,
            time.perf_counter(),
            None,
            parent,
            request_id,
            threading.current_thread().name,
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(entry)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def write(self, path) -> None:
        """Write every finished span as one NDJSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, rid, thread) in enumerate(
                self.spans
            ):
                if end is None:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent if parent >= 0 else None,
                            "request_id": rid,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(function, log: SpanLog, name: str, when):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not log.enabled or (when is not None and not when(args)):
            return function(*args, **kwargs)
        index = log.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            log.end(index)

    return wrapper


def _request_id_of(args) -> Optional[str]:
    """``AnalysisServer._handle(self, handler, method)``: the client's
    ``X-Request-Id`` header."""
    handler = args[1] if len(args) > 1 else None
    headers = getattr(handler, "headers", None)
    return headers.get("X-Request-Id") if headers is not None else None


def install(log: SpanLog) -> List[str]:
    """Swap every resolvable target for its span wrapper, for the rest of
    the process's life.

    Returns the span targets that could not be found: a renamed entry
    point shows up here and as an uncovered share of wall time, not as a
    crash.
    """
    missing: List[str] = []
    for module_name, path, name, when in TARGETS:
        try:
            owner, attribute = _resolve(module_name, path)
            raw = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        if isinstance(raw, staticmethod):
            swapped: Any = staticmethod(_wrap(raw.__func__, log, name, when))
        elif isinstance(raw, classmethod):
            swapped = classmethod(_wrap(raw.__func__, log, name, when))
        else:
            swapped = _wrap(raw, log, name, when)
        if name == "serve.request":
            swapped = _track_request(swapped, log)
        setattr(owner, attribute, swapped)
    return missing


def _track_request(wrapper, log: SpanLog):
    """Make a request's id current while the server handles it, so every
    span it starts -- on this thread or the shard worker's -- carries it."""

    @functools.wraps(wrapper)
    def tracked(*args, **kwargs):
        log.request_in_flight = _request_id_of(args)
        try:
            return wrapper(*args, **kwargs)
        finally:
            log.request_in_flight = None

    return tracked


# ----------------------------------------------------------------------
# Reading the log
# ----------------------------------------------------------------------


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def _clip(
    intervals: Iterable[Tuple[float, float]],
    windows: Sequence[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    clipped = []
    for start, end in intervals:
        for low, high in windows:
            a, b = max(start, low), min(end, high)
            if b > a:
                clipped.append((a, b))
    return clipped


def finished(log: SpanLog) -> List[List[Any]]:
    return [span for span in log.spans if span[2] is not None]


def span_table(log: SpanLog) -> Dict[str, Dict[str, float]]:
    """Per span name: outermost calls, outermost (inclusive) seconds, and
    self seconds (duration minus child coverage, summed over all spans
    of the name)."""
    spans = log.spans
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[2] is not None and span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent, _rid, _thread) in enumerate(spans):
        if end is None:
            continue
        row = table.setdefault(
            name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        duration = end - start
        row["self_seconds"] += duration - _union_length(
            children.get(index, ())
        )
        ancestor, nested = parent, False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            row["calls"] += 1
            row["seconds"] += duration
    return table


def coverage(log: SpanLog, windows: Sequence[Tuple[float, float]]) -> float:
    """Share of the windows' total length that some span covers."""
    total = sum(high - low for low, high in windows)
    if total <= 0:
        return 0.0
    covered = _union_length(
        _clip(((s[1], s[2]) for s in finished(log)), windows)
    )
    return covered / total


def shard_split(log: SpanLog) -> Tuple[float, float]:
    """(shard wait, shard busy) seconds: time callers spent blocked in
    ``Shard.execute``/``apply`` beyond the worker's service time, and
    that service time itself."""
    call = sum(
        s[2] - s[1] for s in finished(log) if s[0] == "serve.shard_call"
    )
    busy = sum(
        s[2] - s[1]
        for s in finished(log)
        if s[0] in SHARD_SERVICE_SPANS and s[5].startswith("shard-")
    )
    return max(0.0, call - busy), busy


def request_seconds(log: SpanLog) -> Dict[str, float]:
    """Request id -> server-side duration of its ``serve.request`` span."""
    return {
        s[4]: s[2] - s[1]
        for s in finished(log)
        if s[0] == "serve.request" and s[4] is not None
    }


# ----------------------------------------------------------------------
# The program's own registry
# ----------------------------------------------------------------------


def registry_totals(registries: Iterable[Any]) -> Dict[str, float]:
    """Counter totals (summed over label sets and registries) for every
    series the per-layer metrics read, plus the cone histogram's sum and
    count."""
    wanted = set(REGISTRY_COUNTERS.values()) | set(_RATIO_SERIES)
    totals: Dict[str, float] = {name: 0 for name in wanted}
    totals["cone_sum"] = 0
    totals["cone_count"] = 0
    for registry in registries:
        for name in wanted:
            family = registry.get(name)
            if family is None:
                continue
            for _labels, child in family.samples():
                totals[name] += child.value
        family = registry.get(_CONE_HISTOGRAM)
        if family is not None:
            for _labels, child in family.samples():
                totals["cone_sum"] += child.sum
                totals["cone_count"] += child.count
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: Dict[str, Dict[str, float]],
    registry_delta: Dict[str, float],
    units: int,
    supplied: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric value, per measured unit where it is a
    time or a count."""
    per = max(units, 1)
    values: Dict[str, float] = {}
    for metric, span in SPAN_SECONDS.items():
        values[metric] = table.get(span, {}).get("seconds", 0.0) / per
    for metric, span in SPAN_CALLS.items():
        values[metric] = table.get(span, {}).get("calls", 0) / per
    for metric, series in REGISTRY_COUNTERS.items():
        values[metric] = registry_delta.get(series, 0) / per
    values["dynamic.invalidation_cone_services"] = _ratio(
        registry_delta.get("cone_sum", 0), registry_delta.get("cone_count", 0)
    )
    values["core.closure_rounds_reused_ratio"] = _ratio(
        registry_delta.get("repro_closure_rounds_reused_total", 0),
        registry_delta.get("repro_closure_rounds_reused_total", 0)
        + registry_delta.get("repro_closure_rounds_scanned_total", 0),
    )
    reused = registry_delta.get("repro_stream_segments_reused_total", 0)
    values["streams.segment_reuse_ratio"] = _ratio(
        reused,
        reused + registry_delta.get("repro_stream_segments_computed_total", 0),
    )
    hits = registry_delta.get("repro_result_cache_hits_total", 0)
    values["api.cache_hit_ratio"] = _ratio(
        hits, hits + registry_delta.get("repro_result_cache_misses_total", 0)
    )
    for metric in WORKLOAD_SUPPLIED:
        value = supplied.get(metric, 0.0)
        if WORKLOAD_SUPPLIED[metric].endswith("/op"):
            value = value / per
        values[metric] = value
    return values


def subtract(after: Dict[str, float], before: Dict[str, float]) -> Dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def merge_tables(
    tables: Iterable[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            for key in into:
                into[key] += row[key]
    return merged
