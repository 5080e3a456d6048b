"""The :class:`AnalysisService` facade: one surface over the whole pipeline.

Everything the paper's pipeline computes -- TDG construction, level
classification, measurement, forward closure, defense evaluation,
rollout what-ifs -- is served here through typed queries
(:mod:`repro.api.queries`) against live
:class:`~repro.dynamic.session.DynamicAnalysisSession` state:

- **Mutations route through the incremental engines.**  :meth:`apply`
  feeds each :class:`~repro.dynamic.events.Mutation` to the session,
  which splices the shared indexes and delta-BFSes the level engine; the
  service just bumps its version.
- **Queries are version-cache-keyed.**  Every query has a canonical key;
  results live in a :class:`~repro.api.cache.ResultCache` keyed by
  (key, version), so a repeated query at an unchanged version is an O(1)
  lookup and a mutation invalidates *by construction* (the version moved)
  rather than by scanning.
- **Plan/execute separation.**  :meth:`plan` resolves attacker labels,
  dedupes canonical keys and marks cached entries; :meth:`run` then
  serves each query from the warm engines (and :meth:`execute_batch` is
  the two composed).  The engines share work across a batch on their
  own: the level engine absorbs pending deltas in one flush on its first
  read, and later reads come off its maintained tables.
- **Streams paginate, and survive mutations.**  Couple File and
  weak-edge queries return cursor pages served from each graph's
  :class:`~repro.streams.RecordStreamEngine`: one memoized record
  segment per service, spliced (not discarded) when a mutation lands.
  ``next_cursor`` is a segment watermark token, so page *n+1* starts at
  the watermark -- never re-enumerating pages ``0..n`` -- and a
  pagination interrupted by a mutation resumes without re-emitting
  drained segments.

This facade is the serving seam: anything that wants to shard, batch,
or distribute the analysis talks to these queries, not to the engines.
The engines behind the measurement, defense and rollout queries are the
module functions :func:`~repro.analysis.measurement.aggregate_reports`,
:func:`~repro.defense.evaluation.measure_outcome` and
:func:`~repro.dynamic.rollout.replay_plan`.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.api.cache import CacheStats, ResultCache
from repro.api.queries import (
    ClosureQuery,
    ClosureSummary,
    CoupleFileQuery,
    CouplePage,
    DefenseEvalQuery,
    DefenseEvalResult,
    DependencyLevelsQuery,
    DependencyLevelsResult,
    EdgePage,
    EdgeSummary,
    EdgeSummaryQuery,
    LevelReportQuery,
    LevelReportResult,
    MeasurementQuery,
    Query,
    RolloutQuery,
    WeakEdgeQuery,
)
from repro.core.actfort import ActFort
from repro.core.strategy import StrategyEngine
from repro.dynamic.events import EcosystemDelta, Mutation
from repro.dynamic.session import DynamicAnalysisSession
from repro.model.attacker import AttackerProfile
from repro.model.ecosystem import Ecosystem
from repro.obs import Instrumentation, metrics_snapshot
from repro.websim.internet import Internet

__all__ = [
    "AnalysisService",
    "ApplyMutation",
    "ExecutionPlan",
    "MutationReceipt",
    "PlannedQuery",
]


@dataclasses.dataclass(frozen=True)
class ApplyMutation:
    """The one command kind: apply a typed mutation to the live state."""

    mutation: Mutation


@dataclasses.dataclass(frozen=True)
class MutationReceipt:
    """What a command returns: the delta and the version it produced."""

    delta: EcosystemDelta
    version: int


@dataclasses.dataclass(frozen=True)
class PlannedQuery:
    """One query of a plan, with its resolved cache key."""

    query: Query
    key: Tuple
    #: Whether the planner saw a cache entry at plan time (advisory).
    cached: bool


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """A batch of queries resolved against one session version."""

    version: int
    steps: Tuple[PlannedQuery, ...]


class AnalysisService:
    """Typed query/command facade over one evolving account ecosystem.

    The service owns one multi-attacker
    :class:`~repro.dynamic.session.DynamicAnalysisSession` (one shared
    ecosystem index, one maintained graph per attacker label) plus the
    version-keyed result cache and the stream cursors.  Construct it from
    an ecosystem (profile mode), from stage-1/2 reports or a deployed
    internet (probe mode, read-only), or adopt an existing session.
    """

    def __init__(
        self,
        ecosystem: Ecosystem,
        attacker: Optional[AttackerProfile] = None,
        attackers: Optional[Mapping[str, AttackerProfile]] = None,
        cache_entries: int = 4096,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self._adopt(
            DynamicAnalysisSession(
                ecosystem,
                attacker=attacker,
                attackers=attackers,
                instrumentation=instrumentation,
            ),
            cache_entries,
        )

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_session(
        cls, session: DynamicAnalysisSession, cache_entries: int = 4096
    ) -> "AnalysisService":
        """Adopt a live session (shared, not copied: mutations through
        either surface are visible to both)."""
        service = cls.__new__(cls)
        service._adopt(session, cache_entries)
        return service

    @classmethod
    def from_reports(
        cls,
        auth_reports,
        collection_reports,
        attacker: Optional[AttackerProfile] = None,
        attackers: Optional[Mapping[str, AttackerProfile]] = None,
        cache_entries: int = 4096,
        instrumentation: Optional[Instrumentation] = None,
    ) -> "AnalysisService":
        """A read-only service over pre-built stage-1/2 reports."""
        return cls.from_session(
            DynamicAnalysisSession.from_reports(
                auth_reports,
                collection_reports,
                attacker=attacker,
                attackers=attackers,
                instrumentation=instrumentation,
            ),
            cache_entries,
        )

    @classmethod
    def from_actfort(
        cls, actfort: ActFort, cache_entries: int = 4096
    ) -> "AnalysisService":
        """A read-only service over one analyzed ActFort instance."""
        return cls.from_reports(
            actfort.auth_reports,
            actfort.collection_reports,
            attacker=actfort.attacker,
            cache_entries=cache_entries,
        )

    @classmethod
    def from_internet(
        cls,
        internet: Internet,
        attacker: Optional[AttackerProfile] = None,
        cache_entries: int = 4096,
    ) -> "AnalysisService":
        """Probe a deployed internet black-box, then serve its analysis."""
        return cls.from_actfort(
            ActFort.from_internet(internet, attacker=attacker),
            cache_entries=cache_entries,
        )

    @classmethod
    def restore(
        cls,
        document: Mapping[str, Any],
        cache_entries: int = 4096,
        instrumentation: Optional[Instrumentation] = None,
    ) -> "AnalysisService":
        """Warm-start a service from a :meth:`snapshot` document.

        The session restores lazily (reports and graphs materialize on
        first engine access) and the snapshot's ``warm_results`` seed the
        result cache at the restored version -- so a migrated tenant's
        standard query batch is served as O(1) hits before any engine
        exists.  Entries that fail to decode are dropped (the cache is an
        optimization; a dropped entry just recomputes on miss)."""
        from repro.api.wire import query_from_dict, result_from_dict

        service = cls.from_session(
            DynamicAnalysisSession.restore(
                document, instrumentation=instrumentation
            ),
            cache_entries,
        )
        primary = service.primary_attacker
        for entry in document.get("warm_results", ()):
            try:
                query = query_from_dict(entry["query"])
                value = result_from_dict(entry["result"])
            except (KeyError, ValueError):
                continue  # recomputes on first miss; never fatal
            key = service._cache_key(query, primary)
            service._query_by_key[key] = query
            service._cache.put(key, service.version, value)
        return service

    def snapshot(self, include_warm_results: bool = True) -> Dict[str, Any]:
        """The backing session's snapshot document, extended with this
        service's live cache entries as ``warm_results``.

        Only wire-codable entries at the *current* version are carried
        (``RolloutQuery`` trajectories are in-process-only, and defense
        rows are dropped once :meth:`register_defense` has customized the
        registry, since the restored side starts from the standard set).
        """
        document = dict(self._session.snapshot())
        if not include_warm_results:
            return document
        from repro.api.wire import query_to_dict, result_to_dict

        warm: List[Dict[str, Any]] = []
        for key, value in self._cache.entries_at(self.version):
            query = self._query_by_key.get(key)
            if query is None:
                continue
            if (
                isinstance(query, DefenseEvalQuery)
                and self._defense_epoch != 0
            ):
                continue
            try:
                warm.append(
                    {
                        "query": query_to_dict(query),
                        "result": result_to_dict(value),
                    }
                )
            except ValueError:
                continue  # not wire-codable (e.g. rollout trajectories)
        document["warm_results"] = warm
        return document

    def _adopt(
        self, session: DynamicAnalysisSession, cache_entries: int
    ) -> None:
        from repro.defense.evaluation import standard_defenses

        self._session = session
        # One handle per session: graphs and engines already report into
        # it (attached by the session), the service adds the serving-tier
        # instruments on top.
        self._obs = session.instrumentation
        self._cache = ResultCache(
            max_entries=cache_entries, instrumentation=self._obs
        )
        self._queries_counter = self._obs.counter(
            "repro_api_queries_total",
            "Queries served, by query kind and outcome (hit/computed).",
            labels=("kind", "outcome"),
        )
        self._plans_counter = self._obs.counter(
            "repro_api_plans_total", "Execution plans resolved."
        )
        self._plan_dedupe_counter = self._obs.counter(
            "repro_api_plan_deduped_total",
            "Planned steps whose canonical key duplicated an earlier "
            "step of the same batch (served once, hit thereafter).",
        )
        self._defense_transforms: Dict[str, Callable[[Ecosystem], Ecosystem]] = (
            dict(standard_defenses())
        )
        #: Bumped on re-registration so defense cache keys can never serve
        #: a result computed under a different transform set.
        self._defense_epoch = 0
        #: Cache key -> the query that computed it, so :meth:`snapshot`
        #: can re-encode live cache entries as warm results.  Bounded by
        #: the number of distinct canonical keys (version-independent).
        self._query_by_key: Dict[Tuple, Query] = {}

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------

    @property
    def session(self) -> DynamicAnalysisSession:
        """The backing live session."""
        return self._session

    @property
    def ecosystem(self) -> Optional[Ecosystem]:
        """Current ecosystem state (``None`` in probe mode)."""
        return self._session.ecosystem

    @property
    def version(self) -> int:
        """Number of mutations absorbed; part of every cache key."""
        return self._session.version

    @property
    def attackers(self) -> Mapping[str, AttackerProfile]:
        return self._session.attackers

    @property
    def primary_attacker(self) -> str:
        """The label an omitted ``attacker=`` resolves to (first label)."""
        return next(iter(self._session.attackers))

    def __len__(self) -> int:
        return len(self._session)

    @property
    def instrumentation(self) -> Instrumentation:
        """The shared metrics/tracing handle (the session's; every engine
        layer under this service reports into its one registry)."""
        return self._obs

    def cache_stats(self) -> CacheStats:
        """Result-cache counters (hits / misses / live entries)."""
        return self._cache.stats()

    def closure_cache_stats(
        self, attacker: Optional[str] = None
    ) -> Mapping[str, int]:
        """The graph-level closure-cache counters behind ``ClosureQuery``.

        Shows the incremental serve split: ``hits`` (clean records served
        verbatim), ``computes`` (scratch fixpoint runs), ``resumes``
        (support-reaching mutations re-derived from the recorded per-round
        postings), and ``revalidations`` (records marked dirty by deltas).
        """
        label = attacker if attacker is not None else self.primary_attacker
        return self._session.graph(label).closure_cache_stats()

    def observability_snapshot(self) -> Dict[str, Any]:
        """One JSON-serializable dict covering every engine layer.

        ``layers`` holds the five thin per-engine views (result cache,
        closure records, depth fixpoints, parent postings, stream
        segments) keyed the way their legacy ``stats()`` surfaces report
        them; ``metrics`` is the full registry snapshot those views read
        from (plus histograms the views never summarized); and
        ``recent_spans`` is the tracer's bounded ring of finished root
        traces.
        """
        registry = self._obs.registry
        stats = self._cache.stats()
        closure: Dict[str, Any] = {}
        levels: Dict[str, Any] = {}
        parents: Dict[str, Any] = {}
        streams: Dict[str, Any] = {}
        for label in self._session.attackers:
            graph = self._session.graph(label)
            closure[label] = dict(graph.closure_cache_stats())
            levels[label] = {
                "flushes": int(
                    registry.value(
                        "repro_levels_flushes_total", {"attacker": label}
                    )
                ),
                "scratch_builds": int(
                    registry.value(
                        "repro_levels_scratch_builds_total",
                        {"attacker": label},
                    )
                ),
            }
            parents[label] = dict(graph.parents_view().stats())
            streams[label] = dict(graph.streams_engine().stats())
        return {
            "version": self.version,
            "attackers": list(self._session.attackers),
            "layers": {
                "result_cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "entries": stats.entries,
                    "hit_rate": stats.hit_rate,
                },
                "closure": closure,
                "levels": levels,
                "parents": parents,
                "streams": streams,
            },
            "metrics": metrics_snapshot(registry),
            "recent_spans": [
                span.to_dict() for span in self._obs.tracer.recent()
            ],
        }

    def prometheus_metrics(self) -> str:
        """The shared registry in Prometheus text exposition format."""
        return self._obs.prometheus()

    def register_defense(
        self, name: str, transform: Callable[[Ecosystem], Ecosystem]
    ) -> None:
        """Register (or replace) a defense transform for
        :class:`~repro.api.queries.DefenseEvalQuery` to name."""
        self._defense_transforms[name] = transform
        self._defense_epoch += 1

    def defense_names(self) -> Tuple[str, ...]:
        """Registered defense names, in registration order."""
        return tuple(self._defense_transforms)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def apply(self, mutation: Mutation) -> MutationReceipt:
        """Apply one mutation through the incremental engines.

        The session splices indexes and routes the delta into each level
        engine; version-keyed cache entries for the old state simply stop
        being addressable.
        """
        with self._obs.span("api.apply", mutation=mutation.describe()):
            delta = self._session.mutate(mutation)
        return MutationReceipt(delta=delta, version=self.version)

    def replay(
        self, mutations: Iterable[Mutation]
    ) -> Tuple[MutationReceipt, ...]:
        """Apply a mutation sequence; receipts come back in order."""
        return tuple(self.apply(mutation) for mutation in mutations)

    def execute_command(self, command: ApplyMutation) -> MutationReceipt:
        """Typed-command form of :meth:`apply`."""
        if not isinstance(command, ApplyMutation):
            raise TypeError(f"unknown command {command!r}")
        return self.apply(command.mutation)

    # ------------------------------------------------------------------
    # Plan / execute
    # ------------------------------------------------------------------

    def plan(self, queries: Iterable[Query]) -> ExecutionPlan:
        """Resolve a query batch against the current version.

        Planning dedupes canonical keys and marks which queries the
        cache already holds.
        """
        queries = tuple(queries)
        with self._obs.span("api.plan", queries=len(queries)) as span:
            primary = self.primary_attacker
            steps: List[PlannedQuery] = []
            seen_keys: Set[Tuple] = set()
            deduped = 0
            for query in queries:
                key = self._cache_key(query, primary)
                cached = self._cache.peek(key, self.version)
                steps.append(
                    PlannedQuery(query=query, key=key, cached=cached)
                )
                if key in seen_keys:
                    deduped += 1
                seen_keys.add(key)
            self._plans_counter.inc()
            if deduped:
                self._plan_dedupe_counter.inc(deduped)
            span.set_attribute(
                "cached", sum(1 for step in steps if step.cached)
            )
            span.set_attribute("deduped", deduped)
            return ExecutionPlan(version=self.version, steps=tuple(steps))

    def run(self, plan: ExecutionPlan) -> Tuple[Any, ...]:
        """Execute a plan, one result per planned query (in order)."""
        if plan.version != self.version:
            raise ValueError(
                f"plan was made at version {plan.version} but the service "
                f"is at {self.version}; re-plan after mutations"
            )
        with self._obs.span("api.run", steps=len(plan.steps)) as span:
            results: List[Any] = []
            hits = 0
            for step in plan.steps:
                kind = type(step.query).__name__
                hit = self._cache.get(step.key, self.version)
                if hit is not self._cache.miss:
                    hits += 1
                    self._queries_counter.labels(
                        kind=kind, outcome="hit"
                    ).inc()
                    results.append(hit)
                    continue
                with self._obs.span("api.query", kind=kind):
                    value = self._dispatch(step.query)
                self._queries_counter.labels(
                    kind=kind, outcome="computed"
                ).inc()
                self._cache.put(step.key, self.version, value)
                self._query_by_key[step.key] = step.query
                results.append(value)
            span.set_attribute("hits", hits)
            return tuple(results)

    def execute(self, query: Query) -> Any:
        """Plan and run one query."""
        return self.run(self.plan((query,)))[0]

    def execute_batch(self, queries: Iterable[Query]) -> Tuple[Any, ...]:
        """Plan and run a batch (the shared-work path)."""
        return self.run(self.plan(tuple(queries)))

    def raw_query(
        self, what, *args, attacker: Optional[str] = None, **kwargs
    ):
        """Escape hatch: run an arbitrary (uncached) graph query through
        the session's generic ``query`` surface."""
        return self._session.query(what, *args, attacker=attacker, **kwargs)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _cache_key(self, query: Query, primary: str) -> Tuple:
        key = query.canonical_key(primary)
        if isinstance(query, DefenseEvalQuery):
            key = key + (self._defense_epoch,)
        return key

    def _dispatch(self, query: Query) -> Any:
        if isinstance(query, LevelReportQuery):
            return self._execute_level_report(query)
        if isinstance(query, DependencyLevelsQuery):
            return self._execute_dependency_levels(query)
        if isinstance(query, ClosureQuery):
            return self._execute_closure(query)
        if isinstance(query, MeasurementQuery):
            return self._execute_measurement(query)
        if isinstance(query, EdgeSummaryQuery):
            return self._execute_edge_summary(query)
        if isinstance(query, CoupleFileQuery):
            return self._execute_couples(query)
        if isinstance(query, WeakEdgeQuery):
            return self._execute_weak_edges(query)
        if isinstance(query, DefenseEvalQuery):
            return self._execute_defense_eval(query)
        if isinstance(query, RolloutQuery):
            return self._execute_rollout(query)
        raise TypeError(f"unknown query {query!r}")

    def _label(self, query: Query) -> str:
        label = query.resolved_attacker(self.primary_attacker)
        if label not in self._session.attackers:
            raise KeyError(f"unknown attacker label {label!r}")
        return label

    def _execute_level_report(
        self, query: LevelReportQuery
    ) -> LevelReportResult:
        label = self._label(query)
        fractions = self._session.graph(label).levels_report(query.platforms)
        return LevelReportResult(
            attacker=label, version=self.version, fractions=fractions
        )

    def _execute_dependency_levels(
        self, query: DependencyLevelsQuery
    ) -> DependencyLevelsResult:
        label = self._label(query)
        levels = self._session.graph(label).dependency_levels(query.platform)
        return DependencyLevelsResult(
            attacker=label,
            version=self.version,
            platform=query.platform,
            levels=levels,
        )

    def _execute_closure(self, query: ClosureQuery) -> ClosureSummary:
        label = self._label(query)
        closure = StrategyEngine(self._session.graph(label)).forward_closure(
            initially_compromised=query.initially_compromised,
            extra_info=query.extra_info,
            email_provider=query.email_provider,
        )
        return ClosureSummary(
            attacker=label,
            version=self.version,
            rounds=closure.by_round(),
            compromised=tuple(entry.service for entry in closure.entries),
            safe=tuple(sorted(closure.safe)),
            final_info=closure.final_info,
        )

    def _execute_measurement(self, query: MeasurementQuery):
        # Served from the session's maintained counter view (folded per
        # touched service on every mutation), equal to a scratch
        # aggregate_reports() over the current reports exactly.
        return self._session.measurement(attacker=self._label(query))

    def _execute_edge_summary(self, query: EdgeSummaryQuery) -> EdgeSummary:
        label = self._label(query)
        graph = self._session.graph(label)
        weak = (
            sum(1 for _edge in graph.iter_weak_edges())
            if query.include_weak
            else None
        )
        return EdgeSummary(
            attacker=label,
            version=self.version,
            # Counted off the memoized parent sets (no edge-set build);
            # after a mutation only the dirty parent sets re-derive.
            strong_edges=graph.strong_edge_count(),
            fringe=len(graph.fringe_nodes()),
            weak_edges=weak,
        )

    # -- streaming pages ------------------------------------------------

    def _page(
        self, kind: str, label: str, query
    ) -> Tuple[Tuple[Any, ...], Optional[str]]:
        """One stream page through the graph's segment engine.

        Integer cursors are flat offsets over the current version's
        stream; string cursors are segment-watermark tokens from a
        previous ``next_cursor`` and resume at the watermark even across
        mutations.  Either way the page is served from memoized segments
        -- after a mutation only the dirty ones re-derive.
        """
        engine = self._session.graph(label).streams_engine()
        return engine.page(
            kind, query.max_size, query.cursor, query.page_size
        )

    def _execute_couples(self, query: CoupleFileQuery) -> CouplePage:
        label = self._label(query)
        records, next_cursor = self._page("couples", label, query)
        return CouplePage(
            attacker=label,
            version=self.version,
            cursor=query.cursor,
            records=records,
            next_cursor=next_cursor,
        )

    def _execute_weak_edges(self, query: WeakEdgeQuery) -> EdgePage:
        label = self._label(query)
        edges, next_cursor = self._page("weak_edges", label, query)
        return EdgePage(
            attacker=label,
            version=self.version,
            cursor=query.cursor,
            edges=edges,
            next_cursor=next_cursor,
        )

    # -- defense ablation and rollout what-ifs --------------------------

    def _require_ecosystem(self) -> Ecosystem:
        ecosystem = self._session.ecosystem
        if ecosystem is None:
            raise RuntimeError(
                "this service fronts probe reports; defense and rollout "
                "what-ifs need a profile-backed ecosystem"
            )
        return ecosystem

    def _execute_defense_eval(
        self, query: DefenseEvalQuery
    ) -> DefenseEvalResult:
        from repro.defense.evaluation import measure_outcome

        ecosystem = self._require_ecosystem()
        labels = (
            tuple(query.attackers)
            if query.attackers is not None
            else (self.primary_attacker,)
        )
        for label in labels:
            if label not in self._session.attackers:
                raise KeyError(f"unknown attacker label {label!r}")
        names = (
            tuple(query.defenses)
            if query.defenses is not None
            else tuple(self._defense_transforms)
        )
        transforms = []
        for name in names:
            if name not in self._defense_transforms:
                raise KeyError(f"unknown defense {name!r}")
            transforms.append((name, self._defense_transforms[name]))

        variants: List[Tuple[str, Optional[Ecosystem]]] = [("baseline", None)]
        for name, transform in transforms:
            variants.append((name, transform(ecosystem)))
        if query.include_combined and transforms:
            combined = ecosystem
            for _name, transform in transforms:
                combined = transform(combined)
            variants.append(("all_combined", combined))

        rows: Dict[str, List] = {label: [] for label in labels}
        profiles = self._session.attackers
        for variant_label, variant_ecosystem in variants:
            if variant_ecosystem is None:
                # The baseline row serves straight from the maintained
                # session graphs (bit-identical to a rebuild, per the
                # dynamic differential suite) -- warm fixpoints, cached
                # closure.
                for label in labels:
                    rows[label].append(
                        measure_outcome(
                            variant_label,
                            self._session.graph(label),
                            len(self._session),
                        )
                    )
                continue
            base = ActFort.from_ecosystem(
                variant_ecosystem, attacker=profiles[labels[0]]
            )
            clones = base.batch(profiles[label] for label in labels)
            for label, clone in zip(labels, clones):
                rows[label].append(
                    measure_outcome(
                        variant_label, clone.tdg(), len(variant_ecosystem)
                    )
                )
        return DefenseEvalResult(
            version=self.version,
            variants=tuple(label for label, _eco in variants),
            rows={label: tuple(row) for label, row in rows.items()},
        )

    def _execute_rollout(self, query: RolloutQuery):
        from repro.defense.hardening import EmailHardening
        from repro.dynamic.rollout import (
            email_hardening_rollout,
            replay_plan,
            symmetry_repair_rollout,
        )

        ecosystem = self._require_ecosystem()
        label = self._label(query)
        steps = query.steps
        if steps is None:
            # The paper's narrative order at deployment granularity;
            # symmetry targets computed on the email-hardened ecosystem
            # (hardening can itself introduce asymmetries).
            steps = email_hardening_rollout(
                ecosystem
            ) + symmetry_repair_rollout(EmailHardening().apply(ecosystem))
        return replay_plan(
            ecosystem,
            steps,
            attacker=self._session.attackers[label],
            platforms=query.platforms,
            include_weak=query.include_weak,
        )
