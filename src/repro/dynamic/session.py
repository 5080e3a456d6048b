"""The mutate()/query() serving layer over a live ecosystem.

:class:`DynamicAnalysisSession` is what a long mutation stream drives: it
owns the current :class:`~repro.model.ecosystem.Ecosystem`, one indexed
:class:`~repro.core.tdg.TransformationDependencyGraph` per attacker
profile (sharing the attacker-independent index through ``analyze_many``),
and the stage-1/2 reports the measurement study aggregates.  Every
:meth:`mutate` produces an :class:`~repro.dynamic.events.EcosystemDelta`,
feeds it to the incremental maintainer
(:func:`repro.dynamic.incremental.apply_delta`), and re-derives the
stage-1/2 reports for exactly the touched services -- so a mutation costs
a handful of postings splices instead of an O(ecosystem) pipeline rebuild,
and :meth:`query` serves from memoized state that survived the delta.

The dependency-level payload is served by each graph's
:class:`~repro.levels.DepthFixpointEngine`: deltas are routed into the
engine (not answered by dropping the depth fixpoints), which delta-BFSes
the affected cone on the next level query, so mutate+query stays
sub-linear in ecosystem size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.authproc import AuthenticationProcess, ServiceAuthReport
from repro.core.collection import CollectionReport, PersonalInfoCollection
from repro.core.tdg import (
    DependencyLevel,
    TransformationDependencyGraph,
)
from repro.dynamic.events import EcosystemDelta, Mutation
from repro.dynamic.incremental import apply_delta
from repro.model.attacker import AttackerProfile
from repro.model.ecosystem import Ecosystem
from repro.model.factors import Platform
from repro.obs import DEFAULT_SECONDS_BUCKETS, Instrumentation


class DynamicAnalysisSession:
    """A live, incrementally-maintained analysis over one ecosystem.

    ``attackers`` maps labels to profiles; every labelled graph is kept
    consistent under mutations (one shared ecosystem index, one attacker
    view each).  The single-profile convenience form
    ``DynamicAnalysisSession(ecosystem)`` analyzes the paper's baseline
    attacker under the label ``"baseline"``.
    """

    def __init__(
        self,
        ecosystem: Ecosystem,
        attacker: Optional[AttackerProfile] = None,
        attackers: Optional[Mapping[str, AttackerProfile]] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        profiles = self._resolve_attackers(attacker, attackers)
        self._ecosystem: Optional[Ecosystem] = ecosystem
        self._authproc = AuthenticationProcess()
        self._collection = PersonalInfoCollection()
        # Reports are built in catalog order: node order -- and with it
        # the interned id-space and every stream cursor -- follows the
        # insertion order of these dicts.
        self._auth_reports: Dict[str, ServiceAuthReport] = {}
        self._collection_reports: Dict[str, CollectionReport] = {}
        for profile in ecosystem:
            self._refresh_reports(profile)
        self._finish_init(profiles, instrumentation)

    @classmethod
    def from_reports(
        cls,
        auth_reports: Mapping[str, ServiceAuthReport],
        collection_reports: Mapping[str, CollectionReport],
        attacker: Optional[AttackerProfile] = None,
        attackers: Optional[Mapping[str, AttackerProfile]] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> "DynamicAnalysisSession":
        """A session over pre-built stage-1/2 reports (the probe path).

        This is how :class:`~repro.api.AnalysisService` fronts ActFort's
        probe mode: the reports came from black-box observation, there is
        no :class:`~repro.model.ecosystem.Ecosystem` behind them, so the
        session is read-only -- every query works, :meth:`mutate` raises.
        """
        session = cls.__new__(cls)
        profiles = cls._resolve_attackers(attacker, attackers)
        session._ecosystem = None
        session._authproc = AuthenticationProcess()
        session._collection = PersonalInfoCollection()
        session._auth_reports = dict(auth_reports)
        session._collection_reports = dict(collection_reports)
        session._finish_init(profiles, instrumentation)
        return session

    @staticmethod
    def _resolve_attackers(
        attacker: Optional[AttackerProfile],
        attackers: Optional[Mapping[str, AttackerProfile]],
    ) -> Dict[str, AttackerProfile]:
        if attacker is not None and attackers is not None:
            raise ValueError("pass either attacker or attackers, not both")
        if attackers is not None:
            profiles = dict(attackers)
            if not profiles:
                raise ValueError("attackers mapping must be non-empty")
            return profiles
        if attacker is not None:
            return {"baseline": attacker}
        return {"baseline": AttackerProfile.baseline()}

    def _finish_init(
        self,
        profiles: Dict[str, AttackerProfile],
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self._attackers = profiles
        self._graphs: Optional[
            Dict[str, TransformationDependencyGraph]
        ] = None
        self._pending_document = None
        self._ecosystem_pending = False
        self._restored_size: Optional[int] = None
        self._init_obs(instrumentation)
        self._build_graphs()
        self._deltas: List[EcosystemDelta] = []
        # The Section IV counter view; built on the first measurement()
        # call, then folded per touched service on every mutation.  A
        # restored session instead hydrates the view from the snapshot's
        # fold counters (see ``_ensure_measurement_view``).
        self._measurement_view = None
        self._measurement_counters = None
        self._version_base = 0
        self._history_base: List[str] = []

    def _init_obs(self, instrumentation: Optional[Instrumentation]) -> None:
        # One shared handle across every attacker view, attached before
        # any lazy engine exists so all engine layers resolve their
        # registry children from it (label = the attacker label).
        self._obs = (
            instrumentation if instrumentation is not None
            else Instrumentation()
        )
        self._mutations_counter = self._obs.counter(
            "repro_session_mutations_total",
            "Mutations applied to the live session, by mutation kind.",
            labels=("kind",),
        )
        self._apply_seconds = self._obs.histogram(
            "repro_session_apply_seconds",
            "Wall time one mutation took to absorb (delta + reports).",
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        # Id-space sizing, refreshed on read through ``interner_stats``.
        self._ids_live_gauge = self._obs.gauge(
            "repro_ids_live",
            "Live interned ids per id table.",
            labels=("table",),
        )
        self._ids_high_water_gauge = self._obs.gauge(
            "repro_ids_high_water",
            "Ids ever assigned per id table (bitmask width).",
            labels=("table",),
        )

    def _build_graphs(self) -> None:
        # Nodes derive from the maintained stage-1/2 reports -- the exact
        # ActFort derivation -- so the session agrees bit-for-bit with
        # ``ActFort.from_ecosystem`` / ``aggregate_reports`` at every state
        # (the profile-direct ``from_ecosystem`` path differs in node
        # detail, e.g. full-union partial promotion and path order).
        nodes = TransformationDependencyGraph.nodes_from_reports(
            self._auth_reports, self._collection_reports
        )
        graphs = TransformationDependencyGraph.analyze_many(
            nodes, self._attackers.values()
        )
        self._graphs = dict(zip(self._attackers, graphs))
        for label, graph in self._graphs.items():
            graph.attach_instrumentation(self._obs, label)
        self.interner_stats()
        # Indexes must exist eagerly: mutate() maintains them in place, and
        # a lazily-built index cannot be spliced before it exists.
        for graph in graphs:
            graph.attacker_index()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self):
        """This session's full analysis state as a JSON document
        (``repro/session-snapshot@1``) -- see
        :func:`repro.dynamic.snapshot.session_snapshot`."""
        # A restored session that has absorbed no mutations IS its source
        # snapshot; re-emit the document instead of re-encoding, so
        # migrate chains (snapshot -> restore -> snapshot) stay O(1).
        if self._pending_document is not None and not self._deltas:
            return self._pending_document
        from repro.dynamic.snapshot import session_snapshot

        return session_snapshot(self)

    @classmethod
    def restore(
        cls,
        document,
        instrumentation: Optional[Instrumentation] = None,
    ) -> "DynamicAnalysisSession":
        """Warm-start a session from a :meth:`snapshot` document -- see
        :func:`repro.dynamic.snapshot.restore_session`."""
        from repro.dynamic.snapshot import restore_session

        return restore_session(document, instrumentation=instrumentation)

    @classmethod
    def _from_snapshot(
        cls,
        document,
        attackers: Dict[str, AttackerProfile],
        instrumentation: Optional[Instrumentation] = None,
    ) -> "DynamicAnalysisSession":
        """The lazy half of :func:`~repro.dynamic.snapshot.restore_session`:
        profile decoding, report decoding, and graph construction are all
        deferred to first access, so restore itself costs only the
        attacker decode and the dict bookkeeping."""
        session = cls.__new__(cls)
        session._ecosystem = None
        session._ecosystem_pending = document.get("ecosystem") is not None
        session._authproc = AuthenticationProcess()
        session._collection = PersonalInfoCollection()
        session._auth_reports = {}
        session._collection_reports = {}
        session._attackers = dict(attackers)
        session._graphs = None
        session._pending_document = document
        session._restored_size = len(document["auth_reports"])
        session._init_obs(instrumentation)
        session._deltas = []
        session._measurement_view = None
        session._measurement_counters = document.get("measurement")
        session._version_base = document["version"]
        session._history_base = list(document["history"])
        return session

    def _materialize(self) -> None:
        """Decode the deferred snapshot reports and build the graphs
        (idempotent; no-op for sessions that were built live)."""
        if self._graphs is not None:
            return
        from repro.dynamic.snapshot import decode_reports

        with self._obs.span("session.materialize") as span:
            auth, collection = decode_reports(self._pending_document)
            self._auth_reports = auth
            self._collection_reports = collection
            self._build_graphs()
            span.set_attribute("services", len(auth))

    def _refresh_reports(self, profile) -> None:
        self._auth_reports[profile.name] = self._authproc.analyze_profile(
            profile
        )
        self._collection_reports[profile.name] = (
            self._collection.collect_from_profile(profile)
        )

    def _node_from_reports(self, name: str):
        """Derive one service's node from its maintained reports."""
        (node,) = TransformationDependencyGraph.nodes_from_reports(
            {name: self._auth_reports[name]},
            {name: self._collection_reports[name]},
        )
        return node

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------

    @property
    def ecosystem(self) -> Optional[Ecosystem]:
        """The current (post-mutation) ecosystem (``None`` for sessions
        built from probe reports, which have no profile backing)."""
        if self._ecosystem is None and self._ecosystem_pending:
            from repro.dynamic.snapshot import decode_ecosystem

            self._ecosystem = decode_ecosystem(self._pending_document)
            self._ecosystem_pending = False
        return self._ecosystem

    @property
    def attackers(self) -> Mapping[str, AttackerProfile]:
        """Label -> profile for every live attacker view."""
        return dict(self._attackers)

    @property
    def instrumentation(self) -> Instrumentation:
        """The shared metrics/tracing handle every engine layer reports
        through (one registry for all attacker views, distinguished by
        the ``attacker`` label)."""
        return self._obs

    def interner_stats(self) -> Dict[str, Dict[str, int]]:
        """Live/high-water sizes of every id table (service names on the
        shared ecosystem index, one signature table per attacker view),
        refreshing the ``repro_ids_*`` gauges as a side effect."""
        self._materialize()
        eco = self.graph().ecosystem_index()
        stats: Dict[str, Dict[str, int]] = {
            "services": {
                "live": len(eco.ids),
                "high_water": eco.ids.high_water,
            }
        }
        for label, graph in self._graphs.items():
            view = graph.parents_view()
            stats[f"signatures[{label}]"] = {
                "live": view.interner_size(),
                "high_water": view.interner_size(),
            }
        for table, sizes in stats.items():
            self._ids_live_gauge.labels(table=table).set(sizes["live"])
            self._ids_high_water_gauge.labels(table=table).set(
                sizes["high_water"]
            )
        return stats

    @property
    def version(self) -> int:
        """The mutation watermark: mutations applied across the session's
        whole lineage (a restored session resumes from its snapshot's
        watermark, so version-keyed cache entries survive migration)."""
        return self._version_base + len(self._deltas)

    @property
    def history(self) -> Tuple[EcosystemDelta, ...]:
        """Every delta applied *by this process*, in order (pre-restore
        deltas survive only as :attr:`history_digest` strings)."""
        return tuple(self._deltas)

    @property
    def history_digest(self) -> Tuple[str, ...]:
        """One ``describe()`` string per mutation across the session's
        whole lineage, including mutations absorbed before a snapshot
        this session was restored from."""
        return tuple(self._history_base) + tuple(
            delta.describe() for delta in self._deltas
        )

    @property
    def auth_reports(self) -> Mapping[str, ServiceAuthReport]:
        """Maintained stage-1 reports (re-derived only for touched services)."""
        self._materialize()
        return dict(self._auth_reports)

    @property
    def collection_reports(self) -> Mapping[str, CollectionReport]:
        """Maintained stage-2 reports (re-derived only for touched services)."""
        self._materialize()
        return dict(self._collection_reports)

    def graph(
        self, attacker: Optional[str] = None
    ) -> TransformationDependencyGraph:
        """The maintained graph for one attacker label (default: first)."""
        self._materialize()
        if attacker is None:
            return next(iter(self._graphs.values()))
        return self._graphs[attacker]

    def __len__(self) -> int:
        if self._graphs is None:
            return self._restored_size
        return len(self._auth_reports)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def mutate(self, mutation: Mutation) -> EcosystemDelta:
        """Apply one mutation and absorb its delta into every live graph."""
        if self.ecosystem is None:
            raise RuntimeError(
                "this session was built from probe reports; there is no "
                "ecosystem to mutate"
            )
        self._materialize()
        # A restored session must hydrate the measurement view from its
        # snapshot counters *before* the first fold, or the counters go
        # stale the moment a touched service's reports refresh.
        if self._measurement_counters is not None:
            self._ensure_measurement_view()
        with self._obs.span(
            "session.apply", mutation=mutation.describe()
        ) as span:
            mutated, delta = self._ecosystem.apply(mutation)
            self._ecosystem = mutated
            if not delta.is_noop:
                node_overrides = {}
                for profile in delta.added:
                    self._refresh_reports(profile)
                    self._fold_measurement(profile.name, None, None)
                    node_overrides[profile.name] = self._node_from_reports(
                        profile.name
                    )
                for _old, new_profile in delta.replaced:
                    name = new_profile.name
                    old_auth = self._auth_reports.get(name)
                    old_collection = self._collection_reports.get(name)
                    self._refresh_reports(new_profile)
                    self._fold_measurement(name, old_auth, old_collection)
                    node_overrides[name] = self._node_from_reports(name)
                apply_delta(
                    self._graphs.values(), delta, node_overrides=node_overrides
                )
                for profile in delta.removed:
                    old_auth = self._auth_reports.pop(profile.name, None)
                    old_collection = self._collection_reports.pop(
                        profile.name, None
                    )
                    self._fold_measurement(
                        profile.name, old_auth, old_collection
                    )
            span.set_attribute("noop", delta.is_noop)
        self._mutations_counter.labels(kind=type(mutation).__name__).inc()
        self._apply_seconds.observe(span.duration_seconds)
        self._deltas.append(delta)
        return delta

    def _fold_measurement(self, name, old_auth, old_collection) -> None:
        """Fold one touched service's report refresh into the maintained
        measurement counters (no-op until the view is first built)."""
        if self._measurement_view is None:
            return
        self._measurement_view.update(
            name,
            old_auth,
            self._auth_reports.get(name),
            old_collection,
            self._collection_reports.get(name),
        )

    def replay(
        self, mutations: Iterable[Mutation]
    ) -> Tuple[EcosystemDelta, ...]:
        """Apply a mutation sequence; returns the deltas in order."""
        return tuple(self.mutate(mutation) for mutation in mutations)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        what: Union[str, callable],
        *args,
        attacker: Optional[str] = None,
        **kwargs,
    ):
        """Run a read-only query against a maintained graph.

        ``what`` is either a
        :class:`~repro.core.tdg.TransformationDependencyGraph` method name
        (``session.query("level_fractions", Platform.WEB)``) or a callable
        receiving the graph (``session.query(lambda g: len(g.nodes))``).
        """
        graph = self.graph(attacker)
        if callable(what):
            return what(graph)
        return getattr(graph, what)(*args, **kwargs)

    def measurement(self, attacker: Optional[str] = None):
        """The full Section IV payload, served from the maintained
        counter view.

        The first call folds every current report into a
        :class:`~repro.analysis.measurement.MeasurementAggregator`; every
        mutation afterwards re-folds only the touched services, so
        re-measuring after a delta costs O(touched) plus the level
        engine's incremental fractions -- and equals
        :func:`~repro.analysis.measurement.aggregate_reports` over the
        current reports exactly, float for float.
        """
        self._ensure_measurement_view()
        return self._measurement_view.results(self.graph(attacker))

    def _ensure_measurement_view(self) -> None:
        from repro.analysis.measurement import MeasurementAggregator

        if self._measurement_view is not None:
            return
        if self._measurement_counters is not None:
            # Restored sessions resume the fold from the snapshot's
            # counters -- no report scan, and (decisively for warm-start)
            # no materialization.
            self._measurement_view = MeasurementAggregator.from_counters(
                self._measurement_counters
            )
            self._measurement_counters = None
            return
        self._materialize()
        self._measurement_view = MeasurementAggregator(
            self._auth_reports, self._collection_reports
        )

    def measurement_counters(self):
        """The maintained fold counters as a JSON document (``None`` when
        the counter view was never built and no snapshot carried one);
        the ``measurement`` field of :meth:`snapshot`."""
        if self._measurement_view is not None:
            return self._measurement_view.counters_to_dict()
        return self._measurement_counters

    def level_fractions(
        self, platform: Platform, attacker: Optional[str] = None
    ) -> Dict[DependencyLevel, float]:
        """Section IV-B's dependency-level fractions, served live."""
        return self.graph(attacker).level_fractions(platform)

    def level_report(
        self,
        platforms: Iterable[Platform] = (Platform.WEB, Platform.MOBILE),
        attacker: Optional[str] = None,
    ) -> Dict[Platform, Dict[DependencyLevel, float]]:
        """Level fractions for several platforms off one engine flush
        (the batch form the rollout planner and measurement study use)."""
        return self.graph(attacker).levels_report(platforms)

    def dependency_levels(
        self, platform: Platform, attacker: Optional[str] = None
    ):
        """Per-service dependency levels, served live."""
        return self.graph(attacker).dependency_levels(platform)

    def forward_closure(self, attacker: Optional[str] = None, **kwargs):
        """Scenario 1 (OAAS -> PAV) over a maintained graph.

        Served from the graph-level closure cache
        (:meth:`~repro.core.tdg.TransformationDependencyGraph.closure_cache_get`),
        which mutation deltas revalidate instead of dropping: only a delta
        reaching the closure's compromised support set re-runs the global
        fixpoint.
        """
        from repro.core.strategy import StrategyEngine

        return StrategyEngine(self.graph(attacker)).forward_closure(**kwargs)

    def strong_edge_count(self, attacker: Optional[str] = None) -> int:
        return self.graph(attacker).strong_edge_count()

    def weak_edge_count(self, attacker: Optional[str] = None) -> int:
        """Streamed count (never materializes the Couple File)."""
        return sum(1 for _edge in self.graph(attacker).iter_weak_edges())

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def rebuild(
        self, attacker: Optional[str] = None
    ) -> TransformationDependencyGraph:
        """A from-scratch graph over the current ecosystem.

        Rebuilds the full ActFort pipeline (fresh stage-1/2 reports, fresh
        indexes): this is the oracle the differential suite compares the
        maintained graphs against, and the work :meth:`mutate` replaces at
        serving time.
        """
        from repro.core.actfort import ActFort

        if self.ecosystem is None:
            raise RuntimeError(
                "this session was built from probe reports; there is no "
                "ecosystem to rebuild from"
            )
        label = attacker if attacker is not None else next(iter(self._graphs))
        return ActFort.from_ecosystem(
            self._ecosystem, attacker=self._attackers[label]
        ).tdg()
