"""ActFort stage 3: Transformation Dependency Graph generation.

Each node is an online account with a credential-factor attribute (CFA --
its takeover paths) and a personal-information attribute (PIA -- what it
exposes once controlled).  An edge ``u -> v`` exists when information from
``u`` satisfies credential factors of ``v`` under a given attacker profile
(Section III-D):

- ``u`` is a **full capacity parent** of ``v`` (Definition 1, a
  *strong-directivity* edge) when ``u`` alone provides every factor of at
  least one of ``v``'s paths (beyond what the attacker profile supplies).
- ``u`` is a **half capacity parent** (Definition 2) when it provides some
  but not all of a path's factors.
- Nodes that *jointly* cover a path are **couple nodes** (Definition 3,
  *weak-directivity* edges); the tuples are recorded in the Couple File.

On top of the raw graph the module computes the paper's dependency-level
statistics (Section IV-B-1): directly compromisable with phone + SMS code,
compromisable through one middle layer, through two layers of full-capacity
parents, through two layers involving half-capacity parents, or safe.

The engine is **indexed**: instead of rescanning every node per query (the
seed's quadratic-to-cubic behaviour), parent/couple/level queries run over
the inverted indexes of :mod:`repro.core.index` (factor -> providers,
info kind -> holders, masked-view holders per maskable factor) and memoize
:class:`PathCoverage` per path.  The *global* dependency-level machinery
-- the depth fixpoints behind Section IV-B-1's percentages and the
per-service level classification -- lives in :mod:`repro.levels`; this
module keeps the per-node analysis (coverage, parents, couples, edges)
and delegates level questions to its lazily-built
:class:`~repro.levels.DepthFixpointEngine`, which also maintains those
fixpoints incrementally under mutation deltas.

Two more lazily-built engines complete the derivation layer: parent
sets read through a per-residual-signature postings view
(:class:`~repro.levels.parents.SignatureParentsView` -- one
intersection/union join shared by every service on the signature,
retracted per delta only for affected signatures), and the couple /
weak-edge record streams are served segment by segment from a
:class:`~repro.streams.RecordStreamEngine` whose per-service segments
survive mutations outside their dirty cone.  The per-signature member
sets and the combining enumeration behind them are memoized as
*lazily-materialized* replayable views (:class:`_LazyMemberSets`), so
the output-bound couple frontier is only ever derived as far as some
consumer has actually pulled.  The brute-force seed
semantics are preserved verbatim in :mod:`repro.core.reference`, and
``tests/test_tdg_equivalence.py`` differentially asserts the two engines
produce identical edge sets, couple records and level fractions.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.authproc import ServiceAuthReport
from repro.core.collection import CollectionReport
from repro.core.index import (
    DOSSIER_KINDS,
    DOSSIER_THRESHOLD,
    MASKABLE_FACTORS,
    AttackerIndex,
    EcosystemIndex,
)
from repro.levels.engine import (
    MAX_DEPTH as _MAX_DEPTH,  # noqa: F401 - re-exported for reference.py
)
from repro.levels.engine import DependencyLevel, DepthFixpointEngine
from repro.levels.parents import SignatureParentsView
from repro.model.account import AuthPath, ServiceProfile
from repro.obs import DEFAULT_SIZE_BUCKETS, Instrumentation
from repro.streams.segments import RecordStreamEngine
from repro.model.attacker import AttackerCapability, AttackerProfile
from repro.model.ecosystem import Ecosystem
from repro.model.factors import (
    CredentialFactor,
    PersonalInfoKind,
    Platform,
    is_robust_factor,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; networkx loads lazily
    import networkx as nx

__all__ = [
    "DOSSIER_KINDS",
    "DOSSIER_THRESHOLD",
    "CoupleRecord",
    "DependencyLevel",
    "PathCoverage",
    "TDGNode",
    "TransformationDependencyGraph",
    "canonical_length",
]

class _LazyMemberSets:
    """A memoized, lazily-materialized member-set sequence.

    The couple enumeration for one residual-factor signature can run to
    hundreds of thousands of minimal covers at ecosystem scale, but a
    cursor page needs only its first few -- so the per-signature cache
    stores this replayable view over the enumeration generator instead
    of a tuple.  Multiple consumers (every service sharing the
    signature, the stream segments) iterate concurrently: each iterator
    replays the shared buffer and advances the generator only past the
    buffered frontier, so every combination is derived at most once and
    only when some consumer actually reaches it.
    """

    __slots__ = ("_items", "_generator", "_done")

    def __init__(self, generator: Iterator[FrozenSet[str]]) -> None:
        self._items: List[FrozenSet[str]] = []
        self._generator = generator
        self._done = False

    def __iter__(self) -> Iterator[FrozenSet[str]]:
        position = 0
        while True:
            if position < len(self._items):
                yield self._items[position]
                position += 1
                continue
            if self._done:
                return
            try:
                self._items.append(next(self._generator))
            except StopIteration:
                self._done = True


def canonical_length(kind: PersonalInfoKind) -> int:
    """Canonical string length per maskable kind (18-digit citizen IDs,
    16-digit bankcards; nominal 12 elsewhere)."""
    if kind is PersonalInfoKind.CITIZEN_ID:
        return 18
    if kind is PersonalInfoKind.BANKCARD_NUMBER:
        return 16
    return 12


@dataclasses.dataclass(frozen=True)
class TDGNode:
    """One online account in the graph."""

    service: str
    domain: str
    #: CFA: every path that yields control of the account.
    takeover_paths: Tuple[AuthPath, ...]
    #: PIA: kinds readable in full from the logged-in UI (any platform).
    pia: FrozenSet[PersonalInfoKind]
    #: Kinds exposed only partially: kind -> union of revealed character
    #: positions across the service's platforms.  Input to the combining
    #: analysis (Insight 4), not to ordinary full-provider edges.
    pia_partial: Mapping[PersonalInfoKind, FrozenSet[int]] = dataclasses.field(
        default_factory=dict
    )

    def paths_on(self, platform: Optional[Platform]) -> Tuple[AuthPath, ...]:
        """Takeover paths, optionally restricted to one platform."""
        if platform is None:
            return self.takeover_paths
        return tuple(
            p for p in self.takeover_paths if p.platform is platform
        )


@dataclasses.dataclass(frozen=True)
class PathCoverage:
    """How one path of one node can be satisfied under the profile."""

    path: AuthPath
    #: Factors the attacker profile supplies by itself.
    innate: FrozenSet[CredentialFactor]
    #: Factors that must come from other compromised accounts.
    residual: FrozenSet[CredentialFactor]
    #: Factors nothing can supply (biometrics, hardware keys).
    unsatisfiable: FrozenSet[CredentialFactor]

    @property
    def is_direct(self) -> bool:
        """Whether the attacker profile alone satisfies the path."""
        return not self.residual and not self.unsatisfiable

    @property
    def is_blocked(self) -> bool:
        """Whether the path is dead regardless of chaining."""
        return bool(self.unsatisfiable)


@dataclasses.dataclass(frozen=True)
class CoupleRecord:
    """One Couple File entry: the providers jointly unlock the target path."""

    providers: FrozenSet[str]
    target: str
    path: AuthPath


class TransformationDependencyGraph:
    """The TDG over a set of nodes and one attacker profile.

    Queries are answered from precomputed inverted indexes
    (:class:`~repro.core.index.EcosystemIndex` /
    :class:`~repro.core.index.AttackerIndex`) and memoized: path coverages,
    full/half parents, couple records and the dependency-level fixpoints are
    each computed at most once per graph.  Use :meth:`analyze_many` to share
    the attacker-independent index across several attacker profiles.
    """

    def __init__(
        self,
        nodes: Iterable[TDGNode],
        attacker: AttackerProfile,
    ) -> None:
        self._nodes: Dict[str, TDGNode] = {}
        for node in nodes:
            if node.service in self._nodes:
                raise ValueError(f"duplicate TDG node {node.service!r}")
            self._nodes[node.service] = node
        self._attacker = attacker
        self._innate = attacker.innately_satisfiable()
        self._eco_index: Optional[EcosystemIndex] = None
        self._attacker_index: Optional[AttackerIndex] = None
        self._coverage_cache: Dict[AuthPath, PathCoverage] = {}
        #: Cached coverage keys grouped by owning service, so delta
        #: invalidation pops per service instead of scanning every path.
        self._coverage_by_service: Dict[str, List[AuthPath]] = {}
        # Full/half parent sets as service-id bitmasks (the only stored
        # form; the name accessors decode on demand).
        self._full_parents_masks: Dict[str, int] = {}
        self._half_parents_masks: Dict[str, int] = {}
        self._couples_cache: Dict[Tuple[str, int], Tuple[CoupleRecord, ...]] = {}
        self._combining_global_cache: Dict[
            Tuple[CredentialFactor, int], Tuple[FrozenSet[str], ...]
        ] = {}
        self._pool_cover_cache: Dict[Tuple[AuthPath, FrozenSet[str]], bool] = {}
        #: Per-signature member-set views: one lazily-materialized
        #: :class:`_LazyMemberSets` per (signature, max_size) -- an
        #: infeasible signature is simply a view that drains empty.
        self._signature_sets_cache: Dict[
            Tuple[Tuple[CredentialFactor, ...], int], _LazyMemberSets
        ] = {}
        self._signature_cover_cache: Dict[
            Tuple[Tuple[CredentialFactor, ...], FrozenSet[str]], bool
        ] = {}
        self._levels_engine: Optional[DepthFixpointEngine] = None
        self._parents_view: Optional[SignatureParentsView] = None
        self._streams_engine: Optional[RecordStreamEngine] = None
        #: Forward-closure support records keyed by (seeds, extra info,
        #: pinned email provider); maintained under deltas by
        #: :meth:`revalidate_closures` (support-reaching deltas mark a
        #: record dirty; the strategy engine resumes its fixpoint lazily).
        self._closure_cache: Dict[Tuple, object] = {}
        #: Instrumentation handle + per-graph metric label; attached by
        #: the owning session (:meth:`attach_instrumentation`), created
        #: lazily for standalone graphs.  Closure counters are registry
        #: children resolved once per graph in :meth:`_closure_counters`.
        self._obs: Optional[Instrumentation] = None
        self._obs_label = "default"
        self._closure_counters_cache: Optional[Tuple] = None
        self._cone_histogram = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_ecosystem(
        cls, ecosystem: Ecosystem, attacker: AttackerProfile
    ) -> "TransformationDependencyGraph":
        """Build the graph straight from service profiles."""
        return cls(
            (cls.node_from_profile(p) for p in ecosystem),
            attacker,
        )

    @staticmethod
    def nodes_from_reports(
        auth_reports: Mapping[str, ServiceAuthReport],
        collection_reports: Mapping[str, CollectionReport],
    ) -> Tuple[TDGNode, ...]:
        """Derive the node set from stage-1/stage-2 outputs.

        Split out of :meth:`from_reports` so the batch entry points can
        build the nodes once and share them across attacker profiles.
        """
        nodes = []
        for name, auth_report in auth_reports.items():
            collection = collection_reports.get(name)
            complete: FrozenSet[PersonalInfoKind] = frozenset()
            partial: Dict[PersonalInfoKind, FrozenSet[int]] = {}
            if collection is not None:
                complete = collection.effective_kinds(complete_only=True)
                for item in collection.masked_items():
                    if item.kind in complete:
                        continue
                    positions = item.revealed_positions or frozenset()
                    partial[item.kind] = partial.get(item.kind, frozenset()) | positions
            nodes.append(
                TDGNode(
                    service=name,
                    domain=auth_report.domain,
                    takeover_paths=auth_report.paths(),
                    pia=complete,
                    pia_partial=dict(partial),
                )
            )
        return tuple(nodes)

    @classmethod
    def from_reports(
        cls,
        auth_reports: Mapping[str, ServiceAuthReport],
        collection_reports: Mapping[str, CollectionReport],
        attacker: AttackerProfile,
    ) -> "TransformationDependencyGraph":
        """Build the graph from stage-1/stage-2 outputs (the probe path)."""
        return cls(cls.nodes_from_reports(auth_reports, collection_reports), attacker)

    @classmethod
    def analyze_many(
        cls,
        source: Union[Ecosystem, Iterable[TDGNode]],
        attackers: Iterable[AttackerProfile],
    ) -> Tuple["TransformationDependencyGraph", ...]:
        """Build one graph per attacker profile over a shared node set.

        The node list is derived once and the attacker-independent
        :class:`~repro.core.index.EcosystemIndex` is built once and shared;
        each graph only adds its per-profile factor->provider view.  This is
        the batch entry point the measurement study and defense evaluation
        use to sweep attacker profiles without rebuilding from scratch.
        """
        if isinstance(source, Ecosystem):
            nodes: Tuple[TDGNode, ...] = tuple(
                cls.node_from_profile(p) for p in source
            )
        else:
            items = tuple(source)
            if items and not isinstance(items[0], TDGNode):
                nodes = tuple(cls.node_from_profile(p) for p in items)
            else:
                nodes = items
        shared: Optional[EcosystemIndex] = None
        graphs: List[TransformationDependencyGraph] = []
        for attacker in attackers:
            graph = cls(nodes, attacker)
            if shared is None:
                shared = graph.ecosystem_index()
            else:
                graph._eco_index = shared
            graphs.append(graph)
        return tuple(graphs)

    @staticmethod
    def node_from_profile(profile: ServiceProfile) -> TDGNode:
        """Convert one service profile into a TDG node.

        Platforms and kinds are frozensets; they are walked in enum value
        order so ``pia_partial``'s key order is the same under any hash
        seed."""
        complete: Set[PersonalInfoKind] = set()
        partial: Dict[PersonalInfoKind, FrozenSet[int]] = {}
        for platform in sorted(profile.platforms, key=lambda p: p.value):
            kinds = sorted(profile.info_on(platform), key=lambda k: k.value)
            for kind in kinds:
                spec = profile.mask_for(platform, kind)
                length = canonical_length(kind)
                positions = spec.revealed_positions(length)
                if len(positions) >= length:
                    complete.add(kind)
                else:
                    partial[kind] = partial.get(kind, frozenset()) | positions
        # A service whose own platforms mask *differently* can leak the full
        # value by itself (the Gome web-vs-mobile case): union first.
        for kind, positions in list(partial.items()):
            if len(positions) >= canonical_length(kind):
                complete.add(kind)
        for kind in complete:
            partial.pop(kind, None)
        return TDGNode(
            service=profile.name,
            domain=profile.domain,
            takeover_paths=profile.takeover_paths(),
            pia=frozenset(complete),
            pia_partial=dict(partial),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def attacker(self) -> AttackerProfile:
        """The attacker profile the graph was computed under."""
        return self._attacker

    @property
    def nodes(self) -> Tuple[TDGNode, ...]:
        """All nodes, in insertion order."""
        return tuple(self._nodes.values())

    def node(self, service: str) -> TDGNode:
        """Look a node up by service name."""
        return self._nodes[service]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, service: object) -> bool:
        return service in self._nodes

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def ecosystem_index(self) -> EcosystemIndex:
        """The attacker-independent inverted index (built lazily, shared by
        :meth:`analyze_many` across profiles)."""
        if self._eco_index is None:
            self._eco_index = EcosystemIndex(self._nodes)
        return self._eco_index

    def attacker_index(self) -> AttackerIndex:
        """The per-profile factor->provider index (built lazily)."""
        if self._attacker_index is None:
            self._attacker_index = self.ecosystem_index().view(self._attacker)
        return self._attacker_index

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def attach_instrumentation(
        self, instrumentation: Instrumentation, label: str = "default"
    ) -> None:
        """Adopt a shared :class:`~repro.obs.Instrumentation` handle.

        The owning session calls this right after building its graphs and
        before any lazy engine exists, so every engine layer resolves its
        registry children from the shared handle; ``label`` becomes this
        graph's ``attacker`` metric label (one registry distinguishes
        co-resident attacker views).  Attaching resets any instrument
        children already resolved against a previous handle.
        """
        self._obs = instrumentation
        self._obs_label = label
        self._closure_counters_cache = None
        self._cone_histogram = None

    def instrumentation(self) -> Instrumentation:
        """This graph's handle (lazily created and enabled when no
        session attached one, so standalone graphs still count)."""
        if self._obs is None:
            self._obs = Instrumentation()
        return self._obs

    def instrumentation_label(self) -> str:
        """The ``attacker`` label value this graph's metrics carry."""
        return self._obs_label

    def _closure_counters(self) -> Tuple:
        """(hits, computes, resumes, revalidations) registry children."""
        cached = self._closure_counters_cache
        if cached is None:
            obs = self.instrumentation()
            label = self._obs_label
            cached = tuple(
                obs.counter(
                    f"repro_closure_cache_{name}_total",
                    help_,
                    labels=("attacker",),
                ).labels(attacker=label)
                for name, help_ in (
                    ("hits", "Clean closure records served with no fixpoint work."),
                    ("computes", "Scratch forward-closure fixpoint runs."),
                    ("resumes", "Incremental re-derivations from a dirty record."),
                    ("revalidations", "Closure records a delta marked dirty."),
                )
            )
            self._closure_counters_cache = cached
        return cached

    def levels_engine(self) -> DepthFixpointEngine:
        """The dependency-level engine (built lazily, maintained under
        deltas once built)."""
        if self._levels_engine is None:
            self._levels_engine = DepthFixpointEngine(self)
        return self._levels_engine

    def reset_levels_engine(self) -> None:
        """Drop the level engine so the next level query recomputes every
        fixpoint from scratch (benchmark / test comparator hook)."""
        self._levels_engine = None

    def parents_view(self) -> SignatureParentsView:
        """The per-signature parent postings view (built lazily, retracted
        per delta once built).  :meth:`full_capacity_parents` and
        :meth:`half_capacity_parents` read their non-linked member sets
        from it, so one signature join serves every service sharing the
        residual signature."""
        if self._parents_view is None:
            self._parents_view = SignatureParentsView(self)
        return self._parents_view

    def streams_engine(self) -> RecordStreamEngine:
        """The segmented couple/weak-edge stream engine (built lazily,
        spliced per delta once built).  Owns one memoized record segment
        per (service, stream kind); :meth:`iter_couples`,
        :meth:`iter_weak_edges` and the API layer's cursor pages all
        consume the streams through it."""
        if self._streams_engine is None:
            self._streams_engine = RecordStreamEngine(self)
        return self._streams_engine

    def reset_streams_engine(self) -> None:
        """Drop the stream engine so the next stream consumption
        re-derives every segment (benchmark / test comparator hook)."""
        self._streams_engine = None

    # ------------------------------------------------------------------
    # Forward-closure cache (consulted by repro.core.strategy)
    # ------------------------------------------------------------------

    #: Bound on distinct cached closure keys (seeds x breach info x pinned
    #: provider combinations); oldest entries are evicted first.
    _CLOSURE_CACHE_LIMIT = 64

    def closure_cache_get(self, key: Tuple):
        """The cached :class:`~repro.core.strategy.ClosureSupportRecord`
        for one argument key, or ``None``.

        Only clean records count as hits; a dirty record is returned so
        the strategy engine can resume the fixpoint from it (counted under
        ``resumes`` when the refreshed record is stored back).
        """
        record = self._closure_cache.get(key)
        if record is not None and not record.dirty:
            self._closure_counters()[0].inc()
        return record

    def closure_cache_put(self, key: Tuple, record, resumed: bool = False) -> None:
        """Memoize one closure record (the strategy engine's store hook).

        ``resumed`` distinguishes an incremental re-derivation from a
        scratch fixpoint run in the stats.
        """
        if resumed:
            self._closure_counters()[2].inc()
        else:
            self._closure_counters()[1].inc()
        if (
            key not in self._closure_cache
            and len(self._closure_cache) >= self._CLOSURE_CACHE_LIMIT
        ):
            self._closure_cache.pop(next(iter(self._closure_cache)))
        self._closure_cache[key] = record

    def closure_cache_stats(self) -> Dict[str, int]:
        """Closure-cache counters (observability and test hooks).

        - ``hits`` -- clean-record serves (no fixpoint work at all).
        - ``computes`` -- scratch fixpoint runs.
        - ``resumes`` -- incremental re-derivations from a dirty record.
        - ``revalidations`` -- records a delta marked dirty (support
          reached); safe-set patches and untouched survivals are free.
        - ``entries`` -- records currently cached (clean or dirty).

        A thin view over the ``repro_closure_cache_*_total`` registry
        counters (this graph's ``attacker`` label) -- same names, same
        numbers as the pre-registry ad-hoc dict.
        """
        hits, computes, resumes, revalidations = self._closure_counters()
        return {
            "hits": int(hits.value),
            "computes": int(computes.value),
            "resumes": int(resumes.value),
            "revalidations": int(revalidations.value),
            "entries": len(self._closure_cache),
        }

    def reset_closure_cache(self) -> None:
        """Drop every cached closure record so the next PAV query runs the
        scratch fixpoint (benchmark / test comparator hook)."""
        self._closure_cache.clear()

    def revalidate_closures(self, changes) -> None:
        """Route one node delta into every cached closure record.

        ``changes`` is the incremental maintainer's node-change list
        ``(service, old node or None, new node or None)``, applied *after*
        the node set and indexes absorbed the delta.  A cached closure's
        support set is its compromised services: non-compromised nodes
        contribute nothing to anyone else's fall decision (provenance,
        combining pools and info holders are all filtered to compromised
        accounts), so a delta *reaches* a closure only when it

        - touches a compromised service (its PIA/paths fed the fixpoint), or
        - adds/replaces a node that now falls to the closure's final IAD
          (monotonicity: a node that cannot fall at the final information
          set can never fall during the iteration).

        Deltas that only add or remove *safe* services patch the result's
        ``safe`` set in place and everything else survives verbatim.  A
        reaching delta no longer discards the record: it marks the record
        dirty, snapshotting the first-seen old node per touched service
        (phase A's baseline).  The next PAV query resumes the fixpoint
        from the record's per-round support postings
        (:class:`~repro.core.strategy.ClosureSupportRecord`), retracting
        only the rounds whose support actually moved and re-deriving from
        that frontier -- so mutation bursts coalesce into one bounded
        re-derivation instead of one scratch fixpoint per reaching delta.
        """
        if not self._closure_cache:
            return
        with self.instrumentation().span(
            "closure.revalidate", attacker=self._obs_label
        ):
            self._revalidate_closures(changes)

    def _revalidate_closures(self, changes) -> None:
        import dataclasses as _dataclasses

        from repro.core.strategy import ProvenanceTable, StrategyEngine

        engine = StrategyEngine(self)
        for key, record in self._closure_cache.items():
            if record.dirty:
                # Already awaiting re-derivation: fold this delta in.  The
                # snapshots keep the *record-time* baseline (first touch
                # wins), so a burst that cancels itself out still resumes
                # into a fully-reused fixpoint.
                for name, old, _new in changes:
                    record.dirty.setdefault(name, old)
                continue
            _seeds, _extra, email_provider = key
            result = record.result
            # ``compromised`` is a derived property (one frozenset build
            # per access); hoist it off the per-change loop.
            compromised = result.compromised
            table = ProvenanceTable(
                self, result.final_info, compromised, email_provider
            )
            membership_changed = False
            reaches = False
            for name, old, new in changes:
                if name in compromised:
                    reaches = True
                    break
                if new is None:
                    # A safe service shut down: inert to the fixpoint, but
                    # the safe set must drop it.
                    membership_changed = True
                    continue
                if engine._try_takeover(new, table) is not None:
                    reaches = True
                    break
                if old is None:
                    # A new service that stays safe: closure untouched,
                    # safe set gains a member.
                    membership_changed = True
            if reaches:
                # Every change of the reaching delta enters the baseline:
                # even a non-reaching added service must be re-tested by
                # the resume, because re-derived rounds can grow the IAD
                # beyond the final set it was cleared against here.
                self._closure_counters()[3].inc()
                for name, old, _new in changes:
                    record.dirty.setdefault(name, old)
            elif membership_changed:
                record.result = _dataclasses.replace(
                    result,
                    safe=frozenset(self._nodes) - compromised,
                )

    # ------------------------------------------------------------------
    # Incremental maintenance (used by repro.dynamic.incremental)
    # ------------------------------------------------------------------

    def invalidate_after_delta(
        self,
        touched_services: FrozenSet[str],
        affected_factors: FrozenSet[CredentialFactor],
        combining_factors: FrozenSet[CredentialFactor],
        changed_names: FrozenSet[str],
    ) -> None:
        """Drop exactly the memoized entries a node delta can reach.

        Called by the incremental maintainer *after* the node set and the
        live indexes have absorbed a delta.  Arguments:

        - ``touched_services``: services whose nodes were added, removed,
          or replaced (their own paths' memoized state is stale).
        - ``affected_factors``: factors whose provider postings or
          combining state changed under this graph's profile -- any path
          demanding one of them may now split or chain differently.
        - ``combining_factors``: the subset whose masked-view postings
          changed (the only entries the combining enumeration depends on).
        - ``changed_names``: names added to or removed from the node set;
          they shift ``LINKED_ACCOUNT`` provider sets for paths naming
          them.

        The dependency-level fixpoints are *not* dropped: the same four
        arguments are routed to the :meth:`levels_engine`, which
        delta-BFSes the affected cone of both depth maps and keeps every
        level-classification entry the delta cannot reach (lazily, on the
        next level query).  The record streams are *not* dropped either:
        the :meth:`streams_engine` receives the same scope and splices
        only the dirty segments on its next read, and the
        :meth:`parents_view` retracts exactly the signature member sets
        whose factors' provider postings moved (phase A; the next parent
        read re-joins them, phase B).

        The graph's own memos are then dropped along the reachable-service
        set, which comes from the index's reverse-dependency postings
        (factor -> demanders, provider -> linking services).  Coverage
        and parent masks are popped per reachable service.  The other
        five caches are not keyed by service, so each delta scans them
        in full: the pool-cover and couple caches are filtered by the
        key's service, the signature-set and signature-cover caches by
        factor overlap (one ``frozenset`` built per key), and the global
        combining cache by factor.  The cost is therefore O(affected)
        plus O(cached keys) per delta.
        """
        if self._levels_engine is not None:
            self._levels_engine.note_delta(
                touched_services,
                affected_factors,
                combining_factors,
                changed_names,
            )
        if self._streams_engine is not None:
            self._streams_engine.note_delta(
                touched_services,
                affected_factors,
                combining_factors,
                changed_names,
            )
        if self._parents_view is not None:
            self._parents_view.retract(affected_factors)
        if self._eco_index is None:
            # No index -> no memo was ever computed; nothing to drop.
            return
        eco = self._eco_index

        cone_mask = 0
        for factor in affected_factors:
            cone_mask |= eco.demanders_mask(factor)
        for name in changed_names:
            cone_mask |= eco.linked_consumers_mask(name)
        affected_services = set(touched_services) | eco.decode_mask(cone_mask)

        cone = self._cone_histogram
        if cone is None:
            cone = self.instrumentation().histogram(
                "repro_invalidation_cone_services",
                "Services a mutation delta's invalidation cone reached.",
                labels=("attacker",),
                buckets=DEFAULT_SIZE_BUCKETS,
            ).labels(attacker=self._obs_label)
            self._cone_histogram = cone
        cone.observe(len(affected_services))

        for service in affected_services:
            for path in self._coverage_by_service.pop(service, ()):
                self._coverage_cache.pop(path, None)
            self._full_parents_masks.pop(service, None)
            self._half_parents_masks.pop(service, None)
        for key in [
            k
            for k in self._pool_cover_cache
            if k[0].service in affected_services
        ]:
            del self._pool_cover_cache[key]
        for key in [
            k for k in self._couples_cache if k[0] in affected_services
        ]:
            del self._couples_cache[key]
        for key in [
            k
            for k in self._signature_sets_cache
            if frozenset(k[0]) & affected_factors
        ]:
            del self._signature_sets_cache[key]
        for key in [
            k
            for k in self._signature_cover_cache
            if frozenset(k[0]) & affected_factors
        ]:
            del self._signature_cover_cache[key]
        for key in [
            k for k in self._combining_global_cache if k[0] in combining_factors
        ]:
            del self._combining_global_cache[key]

    # ------------------------------------------------------------------
    # Factor provisioning semantics
    # ------------------------------------------------------------------

    def innate_factors(self) -> FrozenSet[CredentialFactor]:
        """Factors the attacker profile supplies with no compromise."""
        return self._innate

    def coverage(self, node: TDGNode, path: AuthPath) -> PathCoverage:
        """Split one path's factors into innate / residual / unsatisfiable.

        Memoized per path (the split depends only on the path and the
        attacker profile, not on the node carrying it)."""
        cached = self._coverage_cache.get(path)
        if cached is not None:
            return cached
        view = self.attacker_index()
        innate: Set[CredentialFactor] = set()
        residual: Set[CredentialFactor] = set()
        unsatisfiable: Set[CredentialFactor] = set()
        for factor in path.factors:
            if factor in self._innate:
                innate.add(factor)
            elif is_robust_factor(factor) or factor is CredentialFactor.PASSWORD:
                # Passwords are secrets, not harvestable information; a path
                # demanding the current password cannot be chained into.
                unsatisfiable.add(factor)
            elif view.provider_mask(factor, path):
                residual.add(factor)
            elif self.ecosystem_index().combinable_excluding(
                factor, path.service
            ):
                residual.add(factor)
            elif factor is CredentialFactor.CUSTOMER_SERVICE and (
                AttackerCapability.SOCIAL_ENGINEERING in self._attacker.capabilities
            ):
                residual.add(factor)
            else:
                unsatisfiable.add(factor)
        result = PathCoverage(
            path=path,
            innate=frozenset(innate),
            residual=frozenset(residual),
            unsatisfiable=frozenset(unsatisfiable),
        )
        self._coverage_cache[path] = result
        self._coverage_by_service.setdefault(path.service, []).append(path)
        return result

    def provides(
        self, provider: TDGNode, factor: CredentialFactor, path: AuthPath
    ) -> bool:
        """Whether controlling ``provider`` supplies ``factor`` for ``path``.

        Answered from the attacker index (the single source of the provider
        semantics; :mod:`repro.core.reference` keeps the scan-based
        restatement as the oracle), so ``provider`` must be a node of this
        graph.
        """
        if factor is CredentialFactor.LINKED_ACCOUNT:
            return provider.service in path.linked_providers
        own = self.ecosystem_index().ids.get(provider.service)
        return own is not None and bool(
            self.attacker_index().static_provider_mask(factor) >> own & 1
        )

    def partial_positions(
        self, provider: TDGNode, factor: CredentialFactor
    ) -> FrozenSet[int]:
        """Character positions ``provider``'s masked view of ``factor``'s
        underlying value reveals (empty when not maskable / not exposed)."""
        maskable = MASKABLE_FACTORS.get(factor)
        if maskable is None:
            return frozenset()
        kind, _length = maskable
        return provider.pia_partial.get(kind, frozenset())

    def _combinable(
        self,
        factor: CredentialFactor,
        path: AuthPath,
        pool: FrozenSet[str],
    ) -> bool:
        """Insight 4: whether masked views pooled from ``pool`` reconstruct
        the factor's full value ("by attacking several service accounts and
        applying certain combining rules, the attacker could easily cipher
        covered SSN and bankcard numbers")."""
        return self._combinable_pool(factor, pool, excluded=path.service)

    def _combinable_pool(
        self,
        factor: CredentialFactor,
        pool: FrozenSet[str],
        excluded: Optional[str] = None,
    ) -> bool:
        """The combining check over ``pool``'s masked views, optionally
        excluding one service (the shared core of the per-path and
        signature-global modes).

        Iterates the pool (couple pools have at most ``max_size``
        members) against the per-service view postings instead of
        filtering every holder -- same union, O(pool) not O(holders),
        which is what keeps the full-cover prolog of a signature
        re-enumeration off the post-mutation serve path."""
        maskable = MASKABLE_FACTORS.get(factor)
        if maskable is None:
            return False
        _kind, length = maskable
        views = self.ecosystem_index().partial_position_masks(factor)
        union = 0
        for name in pool:
            if name == excluded:
                continue
            union |= views.get(name, 0)
        return union.bit_count() >= length

    def _pool_provides(
        self,
        factor: CredentialFactor,
        path: AuthPath,
        pool: FrozenSet[str],
    ) -> bool:
        """Whether the compromised ``pool`` satisfies ``factor`` -- via a
        full provider or via combining masked views."""
        if self.attacker_index().provider_mask(
            factor, path
        ) & self.ecosystem_index().encode_names(pool):
            return True
        return self._combinable(factor, path, pool)

    # ------------------------------------------------------------------
    # Definitions 1-3: parents and couples
    # ------------------------------------------------------------------

    def full_capacity_parents(self, service: str) -> FrozenSet[str]:
        """Definition 1: nodes that alone unlock at least one path.

        Served from the :meth:`parents_view` for every path whose
        residual signature excludes ``LINKED_ACCOUNT``: the per-signature
        intersection is materialized once and shared by every service on
        the signature (self-exclusion distributes, so subtracting the
        service afterwards is exact).  Only linked paths -- whose
        provider options are a property of the path -- intersect their
        own provider sets.  Per-service masks stay memoized (this decodes
        :meth:`full_capacity_parents_mask` per call); a delta pops them
        along the reachable cone and retracts only the signature entries
        whose postings moved.
        """
        return self.ecosystem_index().decode_mask(
            self.full_capacity_parents_mask(service)
        )

    def full_capacity_parents_mask(self, service: str) -> int:
        """:meth:`full_capacity_parents` as a service-id bitmask -- the
        form the depth fixpoint and edge counters consume (one big-int OR
        per path instead of per-name set inserts)."""
        cached = self._full_parents_masks.get(service)
        if cached is not None:
            return cached
        node = self._nodes[service]
        signature_view = self.parents_view()
        mask = 0
        for path in node.takeover_paths:
            cover = self.coverage(node, path)
            if cover.is_blocked or not cover.residual:
                continue
            if CredentialFactor.LINKED_ACCOUNT in cover.residual:
                view = self.attacker_index()
                joint = -1
                for factor in cover.residual:
                    joint &= view.provider_mask(factor, path)
                    if not joint:
                        break
                mask |= joint
            else:
                mask |= signature_view.full_members_mask(cover.residual)
        own = self.ecosystem_index().ids.get(service)
        if own is not None:
            mask &= ~(1 << own)
        self._full_parents_masks[service] = mask
        return mask

    def half_capacity_parents(self, service: str) -> FrozenSet[str]:
        """Definition 2: nodes providing part (not all) of some path.

        The non-linked member sets (union minus intersection per residual
        signature) come from the :meth:`parents_view`, shared across every
        service on the signature; linked paths stay per-path.  Decoded
        from :meth:`half_capacity_parents_mask`, which is memoized and
        invalidated exactly like the full-capacity mask."""
        return self.ecosystem_index().decode_mask(
            self.half_capacity_parents_mask(service)
        )

    def half_capacity_parents_mask(self, service: str) -> int:
        """:meth:`half_capacity_parents` as a service-id bitmask."""
        cached = self._half_parents_masks.get(service)
        if cached is not None:
            return cached
        node = self._nodes[service]
        signature_view = self.parents_view()
        mask = 0
        for path in node.takeover_paths:
            cover = self.coverage(node, path)
            if cover.is_blocked or not cover.residual:
                continue
            if CredentialFactor.LINKED_ACCOUNT in cover.residual:
                view = self.attacker_index()
                joint = -1
                union = 0
                for factor in cover.residual:
                    provider_mask = view.provider_mask(factor, path)
                    joint &= provider_mask
                    union |= provider_mask
                mask |= union & ~joint
            else:
                mask |= signature_view.half_members_mask(cover.residual)
        own = self.ecosystem_index().ids.get(service)
        if own is not None:
            mask &= ~(1 << own)
        self._half_parents_masks[service] = mask
        return mask

    def couples(self, service: str, max_size: int = 3) -> Tuple[CoupleRecord, ...]:
        """Definition 3: minimal joint covers of some path (the Couple File).

        Only genuinely joint covers are recorded (size >= 2); covers
        containing a full-capacity parent are not minimal and are skipped.

        Two layers of reuse make this tractable at ecosystem scale:

        - Member-set lists are memoized per *residual-factor signature*
          (``LINKED_ACCOUNT`` aside, provider options depend only on the
          residual factors, not on the individual path); each path then
          filters out sets containing its own service.  A member set
          containing the excluded service can never prune, equal or cover
          one that does not, so the filtered list is identical to a
          per-path enumeration -- hundreds of paths collapse onto a handful
          of signatures.
        - Within one enumeration, options containing a *single-node full
          cover* are pruned before the product (every multi-member combo
          containing such a node fails minimality anyway), surviving
          two-member combos are minimal by construction, and the
          dropping-one-member check for triples is cached per pool.
        """
        cache_key = (service, max_size)
        cached = self._couples_cache.get(cache_key)
        if cached is not None:
            return cached
        result = tuple(self._service_couple_records(service, max_size))
        self._couples_cache[cache_key] = result
        return result

    def _service_couple_records(
        self, service: str, max_size: int = 3
    ) -> Iterator[CoupleRecord]:
        """One service's Couple File records, streamed in canonical order.

        The single enumeration point behind :meth:`couples`, the stream
        engine's segments, and the weak-edge family: member sets come
        from the memoized per-signature postings (shared by every service
        on the same residual-factor signature), each path filters out
        sets containing its own service, and an already-memoized
        per-service Couple File is replayed instead of re-enumerated.
        Nothing is cached here -- callers decide what to materialize.
        """
        cached = self._couples_cache.get((service, max_size))
        if cached is not None:
            yield from cached
            return
        node = self._nodes[service]
        seen: Set[Tuple[FrozenSet[str], AuthPath]] = set()
        for path in node.takeover_paths:
            cover = self.coverage(node, path)
            if cover.is_blocked or not cover.residual:
                continue
            if CredentialFactor.LINKED_ACCOUNT in cover.residual:
                member_sets = self._path_couple_sets(path, cover, max_size)
            else:
                factors = tuple(
                    sorted(cover.residual, key=lambda f: f.value)
                )
                member_sets = self._signature_couple_sets(factors, max_size)
            for members in member_sets:
                if service in members:
                    continue
                key = (members, path)
                if key in seen:
                    continue
                seen.add(key)
                yield CoupleRecord(
                    providers=members, target=service, path=path
                )

    def iter_couples(self, max_size: int = 3) -> Iterator[CoupleRecord]:
        """Stream every Couple File record, segment by segment.

        Consumes the :meth:`streams_engine`: one memoized record segment
        per service, concatenated in graph insertion order -- exactly the
        order concatenating :meth:`couples` over the node set would
        produce.  Segments a consumer has drained survive mutations
        (only the delta's dirty cone re-derives, from the per-signature
        member-set postings), so a re-scan after a mutation costs the
        dirty segments, not the whole enumeration.  The per-service
        :meth:`couples` memo is replayed when warm but never populated
        from here.
        """
        return self.streams_engine().iter_records("couples", max_size)

    def couple_file(self, max_size: int = 3) -> Tuple[CoupleRecord, ...]:
        """The full Couple File as one tuple (delegates to
        :meth:`iter_couples`; prefer the iterator at ecosystem scale)."""
        return tuple(self.iter_couples(max_size))

    def _signature_couple_sets(
        self, factors: Tuple[CredentialFactor, ...], max_size: int
    ):
        """Minimal joint covers for one residual-factor signature, over the
        whole graph with no service excluded.  Callers drop the sets
        containing their own service.

        Memoized as a :class:`_LazyMemberSets`: the enumeration -- the
        output-bound frontier of the whole pipeline -- materializes only
        as far as some consumer has pulled, and every service sharing the
        signature replays the shared buffer.  A delta pops exactly the
        signatures containing an affected factor; the next pull re-derives
        only those.
        """
        cache_key = (factors, max_size)
        cached = self._signature_sets_cache.get(cache_key)
        if cached is not None:
            return cached
        view = self.attacker_index()
        eco = self.ecosystem_index()
        option_lists: List[object] = []
        candidates: Set[str] = set()
        for factor in factors:
            providers = view.static_providers_ordered(factor)
            candidates.update(providers)
            singletons = tuple(frozenset({name}) for name in providers)
            combining = self._combining_sets_global(factor, max_size)
            if isinstance(combining, tuple):
                # Non-maskable factor: provider singletons only.
                option_lists.append(singletons + combining)
                continue
            # Candidate full-cover names need no enumeration: combining
            # members are always masked-view holders (a superset of the
            # members actually enumerated, which prunes identically --
            # names outside every option prune nothing).
            candidates.update(
                name for name, _positions in eco.partial_holders[factor]
            )
            option_lists.append(
                _LazyMemberSets(
                    itertools.chain(iter(singletons), iter(combining))
                )
            )
        result = _LazyMemberSets(
            self._iter_couple_sets(
                factors,
                option_lists,
                max_size,
                lambda pool: self._signature_covers(factors, pool),
                frozenset(candidates),
            )
        )
        self._signature_sets_cache[cache_key] = result
        return result

    def _path_couple_sets(
        self, path: AuthPath, cover: PathCoverage, max_size: int
    ) -> Tuple[FrozenSet[str], ...]:
        """Per-path enumeration for signatures involving ``LINKED_ACCOUNT``
        (whose provider options are a property of the path)."""
        view = self.attacker_index()
        factors = tuple(sorted(cover.residual, key=lambda f: f.value))
        option_lists: List[Tuple[FrozenSet[str], ...]] = []
        for factor in factors:
            options: List[FrozenSet[str]] = [
                frozenset({name})
                for name in view.providers_ordered(factor, path)
            ]
            options.extend(self._combining_sets(factor, path, max_size))
            if not options:
                return ()
            option_lists.append(tuple(options))
        return tuple(
            self._iter_couple_sets(
                factors,
                option_lists,
                max_size,
                lambda pool: self._covers_residual(path, cover, pool),
            )
        )

    @staticmethod
    def _iter_couple_sets(
        factors: Tuple[CredentialFactor, ...],
        option_lists: List[object],
        max_size: int,
        covers,
        candidates: Optional[FrozenSet[str]] = None,
    ) -> Iterator[FrozenSet[str]]:
        """Shared product enumeration with full-cover pruning and the
        size-2 minimality shortcut; ``covers(pool)`` decides whether a pool
        satisfies every signature factor.  A generator so the memoized
        per-signature view (:class:`_LazyMemberSets`) materializes combos
        only as far as consumers pull.

        ``option_lists`` entries are tuples or replayable lazy views;
        ``candidates`` names every service that can appear in an option
        (a superset is fine -- full covers outside every option prune
        nothing).  When omitted it is derived by draining the options,
        which is only acceptable for eager (tuple) lists.
        """
        if candidates is None:
            pooled: Set[str] = set()
            for options in option_lists:
                for members in options:
                    pooled |= members
            candidates = frozenset(pooled)
        full_covers = frozenset(
            name for name in candidates if covers(frozenset({name}))
        )

        def keep(options) -> Iterator[FrozenSet[str]]:
            for option in options:
                if not (option & full_covers):
                    yield option

        pruned: List[object] = [
            tuple(keep(options))
            if isinstance(options, tuple)
            else _LazyMemberSets(keep(options))
            for options in option_lists
        ]
        seen: Set[FrozenSet[str]] = set()

        def consider(members: FrozenSet[str]) -> bool:
            size = len(members)
            if size < 2 or size > max_size:
                return False
            if members in seen:
                return False
            # Two-member sets are minimal by construction here: a redundant
            # member would be a single-node full cover, and those options
            # were pruned above.  Only larger sets need the drop-one check.
            if size > 2 and any(
                covers(members - {member}) for member in members
            ):
                return False
            seen.add(members)
            return True

        # Arity-specialized loops in itertools.product order (an empty
        # pruned list yields no combos, the old infeasible early-out).
        if len(pruned) == 1:
            for option in pruned[0]:
                if consider(option):
                    yield option
        elif len(pruned) == 2:
            first, second = pruned
            for one in first:
                for two in second:
                    members = one | two
                    if consider(members):
                        yield members
        else:
            last = len(pruned) - 1

            def combos(level: int, acc: FrozenSet[str]):
                # Unions only grow, so an intermediate union already over
                # ``max_size`` can never reach ``consider`` as a survivor:
                # skipping it leaves the records and their order unchanged.
                if level == last:
                    for option in pruned[level]:
                        yield acc | option
                else:
                    for option in pruned[level]:
                        grown = acc | option
                        if len(grown) <= max_size:
                            yield from combos(level + 1, grown)

            for members in combos(0, frozenset()):
                if consider(members):
                    yield members

    def _signature_covers(
        self, factors: Tuple[CredentialFactor, ...], pool: FrozenSet[str]
    ) -> bool:
        """Whether ``pool`` satisfies every factor of the signature, with no
        excluded service (cached per signature)."""
        key = (factors, pool)
        cached = self._signature_cover_cache.get(key)
        if cached is None:
            cached = all(
                self._static_pool_provides(factor, pool) for factor in factors
            )
            self._signature_cover_cache[key] = cached
        return cached

    def _static_pool_provides(
        self, factor: CredentialFactor, pool: FrozenSet[str]
    ) -> bool:
        """Path-independent ``_pool_provides`` (no excluded service, no
        ``LINKED_ACCOUNT``): a full provider in the pool, or combining."""
        if self.attacker_index().static_provider_mask(
            factor
        ) & self.ecosystem_index().encode_names(pool):
            return True
        return self._combinable_pool(factor, pool)

    def _combining_sets(
        self, factor: CredentialFactor, path: AuthPath, max_size: int = 3
    ) -> List[FrozenSet[str]]:
        """Minimal sets of partial views that jointly reconstruct ``factor``.

        The enumeration over pairs and triples of masked-view holders is
        memoized once over *all* holders; per-path results are the memoized
        sets minus any containing the path's own service (a set containing
        the excluded service can never prune or equal one that does not, so
        the filtered result is identical to a per-path enumeration).
        """
        return [
            members
            for members in self._combining_sets_global(factor, max_size)
            if path.service not in members
        ]

    def _combining_sets_global(self, factor: CredentialFactor, max_size: int):
        """Insight 4's combining enumeration over every masked-view holder.

        Enumeration order is the seed's (all pairs, then all triples, in
        holder insertion order).  Two seed checks are restated in cheaper
        but equivalent forms: the within-combo minimality check becomes a
        precomputed covers-alone / pair-coverage lookup, and the
        ``existing <= members`` subset prune is dropped entirely -- a size-2
        result is a covering pair, so any triple containing one is already
        rejected by the minimality check, and equal-size duplicates cannot
        occur across distinct holder combinations.

        Memoized as a :class:`_LazyMemberSets`: at ecosystem scale the
        triples phase alone can run to hundreds of thousands of covers,
        so the enumeration materializes only as far as consumers pull --
        a post-mutation cursor page pulls a handful, while a full Couple
        File scan drains it once into the shared buffer.  Coverage and
        minimality conditions depend only on the revealed-position
        bitmask, so they are precomputed per distinct *mask class*
        (catalogs mask with a few patterns) and each combo costs three
        table lookups.
        """
        cache_key = (factor, max_size)
        cached = self._combining_global_cache.get(cache_key)
        if cached is not None:
            return cached
        maskable = MASKABLE_FACTORS.get(factor)
        if maskable is None or max_size < 2:
            empty: Tuple[FrozenSet[str], ...] = ()
            self._combining_global_cache[cache_key] = empty
            return empty
        _kind, length = maskable
        view = _LazyMemberSets(
            self._iter_combining_sets(length, factor, max_size)
        )
        self._combining_global_cache[cache_key] = view
        return view

    def _iter_combining_sets(
        self, length: int, factor: CredentialFactor, max_size: int
    ) -> Iterator[FrozenSet[str]]:
        """The combining generator behind :meth:`_combining_sets_global`:
        all covering, minimal pairs then triples of masked-view holders,
        in holder insertion order, gated by per-mask-class tables."""
        holders = self.ecosystem_index().partial_holders[factor]
        count = len(holders)
        if not count:
            return
        names = [name for name, _positions in holders]
        class_index: Dict[int, int] = {}
        class_of: List[int] = []
        for _name, positions in holders:
            mask = 0
            for position in positions:
                mask |= 1 << position
            cls = class_index.setdefault(mask, len(class_index))
            class_of.append(cls)
        class_masks = list(class_index)
        alone = [bin(mask).count("1") >= length for mask in class_masks]
        pair_rows = [
            [
                bin(mask_a | mask_b).count("1") >= length
                for mask_b in class_masks
            ]
            for mask_a in class_masks
        ]
        for i in range(count):
            ci = class_of[i]
            alone_i = alone[ci]
            row_i = pair_rows[ci]
            for j in range(i + 1, count):
                cj = class_of[j]
                if row_i[cj] and not (alone_i or alone[cj]):
                    yield frozenset({names[i], names[j]})
        if max_size < 3:
            return
        for i in range(count):
            ci = class_of[i]
            if alone[ci]:
                continue
            row_i = pair_rows[ci]
            mask_i = class_masks[ci]
            for j in range(i + 1, count):
                cj = class_of[j]
                if row_i[cj] or alone[cj]:
                    continue
                # One validity table per (class_i, class_j): the k loop
                # then costs a single lookup per holder.
                union_ij = mask_i | class_masks[cj]
                row_j = pair_rows[cj]
                valid = [
                    not (row_i[ck] or row_j[ck] or alone[ck])
                    and bin(union_ij | class_masks[ck]).count("1") >= length
                    for ck in range(len(class_masks))
                ]
                name_i, name_j = names[i], names[j]
                for k in range(j + 1, count):
                    if valid[class_of[k]]:
                        yield frozenset({name_i, name_j, names[k]})

    def _covers_residual(
        self,
        path: AuthPath,
        cover: PathCoverage,
        pool: FrozenSet[str],
    ) -> bool:
        """Whether ``pool`` satisfies every residual factor of ``path``
        (cached; rest-pools repeat massively across the couple product)."""
        key = (path, pool)
        cached = self._pool_cover_cache.get(key)
        if cached is None:
            cached = all(
                self._pool_provides(factor, path, pool)
                for factor in cover.residual
            )
            self._pool_cover_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def strong_edges(self) -> FrozenSet[Tuple[str, str]]:
        """All strong-directivity edges (full-capacity parent -> child)."""
        edges: Set[Tuple[str, str]] = set()
        for service in self._nodes:
            for parent in self.full_capacity_parents(service):
                edges.add((parent, service))
        return frozenset(edges)

    def strong_edge_count(self) -> int:
        """``len(strong_edges())`` without building the edge set.

        Each (parent, child) pair is distinct by construction -- one
        membership per child's parent set -- so the count is the sum of
        the memoized parent-set sizes: O(services) dictionary lookups
        when warm, re-deriving only the parent sets a delta reached.
        The serving layer's edge summaries count through this."""
        return sum(
            self.full_capacity_parents_mask(service).bit_count()
            for service in self._nodes
        )

    def iter_weak_edges(
        self, max_size: int = 3
    ) -> Iterator[Tuple[str, str]]:
        """Stream weak-directivity edges without materializing the Couple
        File.

        Consumes the :meth:`streams_engine`'s weak-edge segments: one
        tuple of distinct ``(provider, child)`` pairs per service, child
        by child, derived from the per-signature member-set postings (or
        replayed from a warm couple segment / :meth:`couples` memo) --
        never storing per-service couple records for weak-only
        consumers.  Segments survive mutations outside their dirty cone,
        so repeat counts (e.g. a rollout trajectory's per-step weak-edge
        count) re-derive only what each delta touched.
        """
        return self.streams_engine().iter_records("weak_edges", max_size)

    def weak_edges(self) -> FrozenSet[Tuple[str, str]]:
        """All weak-directivity edges (couple member -> child)."""
        return frozenset(self.iter_weak_edges())

    def to_networkx(self, include_weak: bool = False) -> nx.DiGraph:
        """Export to a NetworkX digraph (Fig. 4 rendering and analysis).

        Nodes carry ``fringe`` (bool) and ``domain`` attributes; edges carry
        ``directivity`` in {"strong", "weak"}.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for node in self._nodes.values():
            graph.add_node(
                node.service,
                domain=node.domain,
                fringe=self.is_direct(node.service),
            )
        for parent, child in self.strong_edges():
            graph.add_edge(parent, child, directivity="strong")
        if include_weak:
            for parent, child in self.weak_edges():
                if not graph.has_edge(parent, child):
                    graph.add_edge(parent, child, directivity="weak")
        return graph

    # ------------------------------------------------------------------
    # Dependency levels (Section IV-B-1's percentages; delegated to the
    # repro.levels engine, which maintains them under mutation deltas)
    # ------------------------------------------------------------------

    def is_direct(
        self, service: str, platform: Optional[Platform] = None
    ) -> bool:
        """Whether the attacker profile alone takes the account over."""
        return self.levels_engine().is_direct(service, platform)

    def _depths(self) -> Dict[str, int]:
        """Minimal compromise depth per node, joint coverage allowed.

        Depth 0 nodes fall to the attacker profile alone; depth ``k`` nodes
        need information pooled from nodes of depth < ``k``.  Unreachable
        nodes are absent from the result.
        """
        return self.levels_engine().joint_depths()

    def _pure_full_depths(self) -> Dict[str, int]:
        """Minimal chain depth using only full-capacity (single-parent)
        steps -- the "all full capacity parents" variant of the paper's
        category (3)."""
        return self.levels_engine().pure_full_depths()

    def dependency_levels(
        self, platform: Platform
    ) -> Mapping[str, FrozenSet[DependencyLevel]]:
        """Per-service dependency levels on one platform (a read-only map
        in node order).

        Levels are non-exclusive across a service's paths ("the overall
        percentage can not be summed up to 100% since one service can have
        multiple reset combinations").  Served from the level engine's
        per-service cache; after a mutation only the entries the delta
        could reach are reclassified.
        """
        return self.levels_engine().dependency_levels(platform)

    def level_fractions(
        self, platform: Platform
    ) -> Dict[DependencyLevel, float]:
        """Fraction of platform services in each level (non-exclusive),
        read off the level engine's maintained counts."""
        return self.levels_engine().level_fractions(platform)

    def levels_report(
        self, platforms: Iterable[Platform]
    ) -> Dict[Platform, Dict[DependencyLevel, float]]:
        """Level fractions for several platforms -- the batch entry point
        the measurement study and the defense evaluation consume levels
        through."""
        engine = self.levels_engine()
        return {
            platform: engine.level_fractions(platform)
            for platform in platforms
        }

    def fringe_nodes(self) -> FrozenSet[str]:
        """Fig. 4's red dots: services the profile takes over directly."""
        return self.levels_engine().direct_services()
