"""The dependency-level engine: depth fixpoints maintained under deltas.

The paper's Section IV-B-1 percentages rest on two global fixpoints over
the Transformation Dependency Graph:

- the **joint-coverage depth** of a service: the minimal number of
  compromise waves before it falls, where each wave may pool information
  (including Insight 4's combined masked views) from every service taken
  in earlier waves;
- the **pure full-chain depth**: the same minimum restricted to
  single-parent (full-capacity) steps.

Both are least fixpoints of a *superior* recurrence --

``depth(v) = 1 + min over paths of max over residual factors of
min over providers of depth(provider)``

(and ``1 + min over full parents`` for the pure variant) -- where every
right-hand value is strictly smaller than the left.  Two consequences
carry the whole module:

1. **Any fixpoint is grounded**: finite depths chain strictly downward to
   depth-0 (directly compromisable) services, so the fixpoint is unique
   and any algorithm that terminates on a fixpoint computes *the* answer
   the from-scratch rounds of the seed engine computed.
2. **Descending chaotic iteration from a pre-fixpoint converges to it**,
   which is what makes incremental maintenance sound: after a delta, the
   engine (phase A) retracts exactly the entries whose derivation is no
   longer supported -- leaving a self-supported, hence pre-fixpoint,
   partial map -- and (phase B) re-derives the retracted cone by worklist,
   with every change pushed forward along the *reverse-dependency
   postings* (factor -> demanding services, provider -> linking services)
   that :class:`~repro.core.index.EcosystemIndex` maintains.

Propagation is gated by :class:`~repro.levels.aggregates.FactorDepthBuckets`:
a provider's depth change that leaves its factors' min-depth summaries
unchanged cannot change any consumer, so the BFS stops immediately -- the
common case for churn that touches services deep in (or absent from) the
dependency ordering.

The engine also owns the per-service level classification itself
(:meth:`DepthFixpointEngine.dependency_levels`), keeping one ordered
entry map and one count per level for each platform, and reclassifying,
per delta, only the entries whose inputs -- own coverage signature,
provider postings, or the depth of a service they can draw factors from
-- actually changed.  The Section IV fractions are read off the counts
(:meth:`DepthFixpointEngine.level_fractions`).  Platform path filtering is
threaded through one memo shared by the classification and
:meth:`is_direct`.  All invalidation is *lazy*: deltas accumulate via
:meth:`note_delta` and are flushed on the next query, so a mutation burst
costs one cone update, not one per mutation.
"""

from __future__ import annotations

import dataclasses
import enum
import types
from collections import deque
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.ids import iter_ids
from repro.core.index import MASKABLE_FACTORS
from repro.levels.aggregates import FactorDepthBuckets
from repro.model.factors import CredentialFactor, Platform
from repro.obs import DEFAULT_SIZE_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import EcosystemIndex
    from repro.core.tdg import TDGNode, TransformationDependencyGraph
    from repro.model.account import AuthPath

__all__ = ["MAX_DEPTH", "DependencyLevel", "DepthFixpointEngine"]

#: Depth cap for the level analysis; the paper's categories stop at two
#: middle layers.
MAX_DEPTH = 8


class DependencyLevel(enum.Enum):
    """The paper's four dependency relationships plus "safe"."""

    DIRECT = "direct"
    ONE_LAYER = "one_layer"
    TWO_LAYER_FULL = "two_layer_full"
    TWO_LAYER_MIXED = "two_layer_mixed"
    SAFE = "safe"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass(frozen=True)
class NodeSignature:
    """One service's local derivation inputs: per-path residual splits.

    Signatures are value-compared across deltas; an unchanged signature
    (same paths, same residual factors, same blocked flags, same direct
    status) means the service's own contribution to every fixpoint and to
    its level classification is unchanged.
    """

    direct: bool
    #: ``(path, residual factors, blocked)`` per takeover path, in order.
    entries: Tuple[
        Tuple["AuthPath", FrozenSet[CredentialFactor], bool], ...
    ]


class _LevelTable:
    """One platform's served classification.

    ``entries`` maps every service with paths on the platform to its
    level set, in the graph's node order; ``view`` is the read-only map
    handed out for it.  A served map is never mutated (results keep it at
    their version), so a refresh builds a new dict.  ``counts`` holds the
    services per level.  ``stale`` collects the entries to reclassify on
    the next read (every service, for a new table), and ``moved`` the
    names added to or removed from the node set since the last read
    (their node-order position may have changed)."""

    __slots__ = ("entries", "view", "counts", "stale", "moved")

    def __init__(self, services) -> None:
        self.entries: Dict[str, FrozenSet[DependencyLevel]] = {}
        self.view = types.MappingProxyType(self.entries)
        self.counts: Dict[DependencyLevel, int] = dict.fromkeys(
            DependencyLevel, 0
        )
        self.stale: Set[str] = set(services)
        self.moved: Set[str] = set()


class DepthFixpointEngine:
    """Owns the dependency-level fixpoints of one graph, incrementally.

    Built lazily by
    :meth:`~repro.core.tdg.TransformationDependencyGraph.levels_engine`;
    graphs that never ask a level/depth question never pay for it.  State
    lives in three tiers, each lazy:

    - **signatures**: per-service coverage splits, the direct set, and the
      platform-filtered path memo;
    - **depths**: the joint and pure-full depth maps, the factor depth
      buckets, the memoized full-capacity parents, and the residual-
      signature postings a service's children are derived from;
    - **levels**: one classification entry per (platform, service),
      plus the per-level counts the fractions are read from.

    Every service bitmask holds ecosystem ids (``EcosystemIndex.ids``),
    so the graph's parent masks are stored as they come.  A flush first
    clears the ids retired since the previous one (see
    :meth:`_clear_retired`): a remove+re-add burst absorbed in one flush
    moves a live name to a fresh id.
    """

    def __init__(self, graph: "TransformationDependencyGraph") -> None:
        self._graph = graph
        self._innate = graph.innate_factors()
        # Tier 1: signatures.
        self._sig: Optional[Dict[str, NodeSignature]] = None
        self._direct: Set[str] = set()
        self._platform_paths: Dict[
            Tuple[str, Optional[Platform]], Tuple["AuthPath", ...]
        ] = {}
        # Tier 2: depth fixpoints.
        self._joint: Optional[Dict[str, int]] = None
        self._pure: Optional[Dict[str, int]] = None
        self._buckets: Optional[FactorDepthBuckets] = None
        self._provided: Dict[str, FrozenSet[CredentialFactor]] = {}
        self._partials: Dict[str, FrozenSet[CredentialFactor]] = {}
        #: service -> full-capacity-parent bitmask (the graph's memoized
        #: mask, stored as it comes).
        self._parents: Optional[Dict[str, int]] = None
        #: The ecosystem interner's retired-id mask as of the last flush;
        #: ids retired since then still have bits in the masks here.
        self._retired_seen: int = 0
        #: Static provider-set sizes, to detect availability transitions
        #: (a factor's provider pool crossing the 0/1 boundary is the only
        #: postings change that can move a coverage split).
        self._provider_counts: Dict[CredentialFactor, int] = {}
        #: residual-factor signature -> bitmask of services with a path
        #: demanding exactly that signature; subset tests against a
        #: node's provided factors find its children and, against a
        #: provided-factor delta, every parenthood flip.
        self._residual_index: Dict[FrozenSet[CredentialFactor], int] = {}
        #: Pure-full depth buckets (depth -> service bitmask), so one
        #: derivation is a handful of big-int ANDs against the parents
        #: mask instead of set algebra over names.
        self._pure_buckets: list = [0] * (MAX_DEPTH + 1)
        #: Per-factor combining memo: the depth-sorted reachable holder
        #: views plus per-exclusion answers (``None`` key = any
        #: non-holder).  Dropped when a holder's depth or view changes.
        self._combine_cache: Dict[CredentialFactor, Tuple[list, dict]] = {}
        #: Last-flushed combinability profiles (union size + per-holder
        #: unique counts); diffed to find whose *coverage answer* a
        #: masking change actually flips.
        self._combine_profiles: Dict[
            CredentialFactor, Tuple[int, Dict[str, int]]
        ] = {}
        # Tier 3: per-service level entries and counts, one table per
        # platform.
        self._levels: Dict[Platform, _LevelTable] = {}
        # Pending (unflushed) delta scope.
        self._pending_touched: Set[str] = set()
        self._pending_factors: Set[CredentialFactor] = set()
        self._pending_names: Set[str] = set()
        # Instrumentation: registry children resolved once against the
        # graph's shared handle (attached before lazy engines exist).
        # Flush-path instruments record the two-phase delta-BFS bill --
        # retractions (phase A) and re-derivations (phase B) per depth
        # map, plus the per-flush touched-signature and dirty-cone sizes.
        obs = graph.instrumentation()
        label = graph.instrumentation_label()
        self._obs = obs
        self._obs_label = label
        self._flushes = obs.counter(
            "repro_levels_flushes_total",
            "Delta flushes absorbed by the depth-fixpoint engine.",
            labels=("attacker",),
        ).labels(attacker=label)
        self._scratch_builds = obs.counter(
            "repro_levels_scratch_builds_total",
            "From-scratch depth-tier builds (first query or engine reset).",
            labels=("attacker",),
        ).labels(attacker=label)
        retractions = obs.counter(
            "repro_levels_retractions_total",
            "Depth entries retracted in phase A of a delta flush.",
            labels=("attacker", "map"),
        )
        rederivations = obs.counter(
            "repro_levels_rederivations_total",
            "Depth entries re-derived in phase B of a delta flush.",
            labels=("attacker", "map"),
        )
        self._retract_joint = retractions.labels(attacker=label, map="joint")
        self._retract_pure = retractions.labels(attacker=label, map="pure")
        self._rederive_joint = rederivations.labels(
            attacker=label, map="joint"
        )
        self._rederive_pure = rederivations.labels(attacker=label, map="pure")
        self._touched_signatures = obs.histogram(
            "repro_levels_touched_signatures",
            "Per-flush count of services whose coverage signature moved.",
            labels=("attacker",),
            buckets=DEFAULT_SIZE_BUCKETS,
        ).labels(attacker=label)
        self._dirty_cone = obs.histogram(
            "repro_levels_dirty_cone_services",
            "Per-flush size of the coverage-dirty service cone.",
            labels=("attacker",),
            buckets=DEFAULT_SIZE_BUCKETS,
        ).labels(attacker=label)

    # ------------------------------------------------------------------
    # Delta intake (lazy: queries flush)
    # ------------------------------------------------------------------

    def note_delta(
        self,
        touched_services: FrozenSet[str],
        affected_factors: FrozenSet[CredentialFactor],
        combining_factors: FrozenSet[CredentialFactor],
        changed_names: FrozenSet[str],
    ) -> None:
        """Record one delta's scope; the next query absorbs the union."""
        self._pending_touched |= touched_services
        self._pending_factors |= affected_factors | combining_factors
        self._pending_names |= changed_names

    def _flush(self) -> None:
        if not (
            self._pending_touched
            or self._pending_factors
            or self._pending_names
        ):
            return
        touched = self._pending_touched
        factors = self._pending_factors
        names = self._pending_names
        self._pending_touched = set()
        self._pending_factors = set()
        self._pending_names = set()
        if self._sig is None:
            return  # nothing built yet; the scratch build sees final state
        self._flushes.inc()
        with self._obs.span(
            "levels.flush",
            attacker=self._obs_label,
            touched=len(touched),
        ) as span:
            self._absorb(touched, factors, names, span)

    def _absorb(
        self,
        touched: Set[str],
        factors: Set[CredentialFactor],
        names: Set[str],
        span,
    ) -> None:
        """The flush body: route one accumulated delta scope through all
        three tiers (split from :meth:`_flush` so the whole absorption
        sits under one ``levels.flush`` span)."""
        graph = self._graph
        nodes = graph._nodes
        eco = graph.ecosystem_index()
        removed = {s for s in touched if s not in nodes}

        # Coverage-dirty cone: services whose residual splits can have
        # moved.  A coverage split reads a provider set's *emptiness*
        # (after self-exclusion), not its contents, so postings churn on a
        # factor whose provider pool stays comfortably above one provider
        # moves no split; only availability transitions, combinability
        # changes, and linked-name membership do.
        combining = {f for f in factors if f in MASKABLE_FACTORS}
        for factor in combining:
            self._combine_cache.pop(factor, None)
        availability: Set[CredentialFactor] = set()
        cone_mask = 0
        flipped_mask = 0
        combining_mask = 0
        if self._joint is not None:
            view = graph.attacker_index()
            for factor in factors:
                if (
                    factor in self._innate
                    or factor is CredentialFactor.LINKED_ACCOUNT
                ):
                    continue
                old_count = self._provider_counts.get(factor, 0)
                new_count = view.static_provider_mask(factor).bit_count()
                self._provider_counts[factor] = new_count
                if old_count <= 1 or new_count <= 1:
                    availability.add(factor)
            # A masking change re-splits a consumer's coverage only if its
            # own combinable-excluding *answer* flipped; everyone else
            # keeps their signature and only re-derives depths (the
            # combining thresholds feed the joint recurrence directly).
            for factor in combining:
                demanders = eco.demanders_mask(factor)
                combining_mask |= demanders
                flips = self._combining_flips(factor, eco)
                if flips is None:
                    flipped_mask |= demanders
                else:
                    flipped_mask |= eco.encode_names(flips) & demanders
        else:
            # Without the depth tier there is no baseline to diff; fall
            # back to the conservative cone for the signature refresh.
            availability = {f for f in factors if f not in self._innate}
        for factor in availability:
            cone_mask |= eco.demanders_mask(factor)
        for name in names:
            cone_mask |= eco.linked_consumers_mask(name)
        dirty: Set[str] = set(touched) | eco.decode_mask(
            cone_mask | flipped_mask
        )
        combining_demanders = eco.decode_mask(combining_mask)

        # Tier 1 refresh: signatures, direct set, platform-path memos.
        for key in [k for k in self._platform_paths if k[0] in touched]:
            del self._platform_paths[key]
        sig_changes: Dict[
            str, Tuple[Optional[NodeSignature], Optional[NodeSignature]]
        ] = {}
        for service in dirty:
            old_sig = self._sig.get(service)
            if service in removed:
                if old_sig is not None:
                    del self._sig[service]
                    sig_changes[service] = (old_sig, None)
                self._direct.discard(service)
                continue
            new_sig = self._signature(service)
            self._sig[service] = new_sig
            if new_sig != old_sig:
                sig_changes[service] = (old_sig, new_sig)
            if new_sig.direct:
                self._direct.add(service)
            else:
                self._direct.discard(service)

        self._touched_signatures.observe(len(sig_changes))
        self._dirty_cone.observe(len(dirty))
        span.set_attribute("signatures_changed", len(sig_changes))
        span.set_attribute("dirty_cone", len(dirty))

        # Parenthood is content-sensitive but combining-insensitive, so
        # its cone excludes the combining demanders: touched services,
        # services whose residual split moved, availability/linked-name
        # consumers, plus the subset-test candidates.
        parents_dirty: Set[str] = set(touched) | set(sig_changes)
        if cone_mask:
            parents_dirty |= eco.decode_mask(cone_mask)
        # First-touch snapshots: phase A retracts conservatively and
        # phase B re-derives, so transient moves are common; only *net*
        # summary/depth changes can move a classification answer.
        initial_summaries: Dict[CredentialFactor, object] = {}
        initial_joint: Dict[str, Optional[int]] = {}
        initial_pure: Dict[str, Optional[int]] = {}
        if self._joint is not None:
            parents_dirty |= self._clear_retired(eco, nodes)
            for service, (old_sig, new_sig) in sig_changes.items():
                self._index_signature(service, old_sig, add=False)
                self._index_signature(service, new_sig, add=True)
            summary_moved, provided_changes = (
                self._refresh_provider_memberships(
                    touched, removed, nodes, initial_summaries
                )
            )
            parents_dirty |= self._parenthood_candidates(
                provided_changes, eco
            )
            joint_seeds = set(dirty) | combining_demanders
            seeds_mask = 0
            for factor in summary_moved:
                seeds_mask |= eco.demanders_mask(factor)
            if seeds_mask:
                joint_seeds |= eco.decode_mask(seeds_mask)
            joint_retracted, joint_rederived = self._update_joint(
                joint_seeds, nodes, eco, initial_summaries, initial_joint
            )
            self._refresh_parents(parents_dirty, nodes)
            pure_retracted, pure_rederived = self._update_pure(
                parents_dirty, nodes, eco, initial_pure
            )
            self._retract_joint.inc(joint_retracted)
            self._rederive_joint.inc(joint_rederived)
            self._retract_pure.inc(pure_retracted)
            self._rederive_pure.inc(pure_rederived)
            span.set_attribute("joint_retracted", joint_retracted)
            span.set_attribute("joint_rederived", joint_rederived)
            span.set_attribute("pure_retracted", pure_retracted)
            span.set_attribute("pure_rederived", pure_rederived)

        # A classification entry reads exactly: the service's own coverage
        # signature, its paths' parenthood (pf0/pf1 intersections), and
        # per-factor pool answers (depth summaries, combining thresholds,
        # linked depths).  Invalidate along those channels from the *net*
        # state changes -- a depth change that moved no summary, combining
        # threshold, linked depth, or pf0/pf1 parenthood invalidates
        # nobody beyond the dirty cone itself.
        invalid: Set[str] = set(dirty) | parents_dirty | combining_demanders
        invalid_mask = 0
        buckets = self._buckets
        for factor, before in initial_summaries.items():
            if buckets.summary(factor) != before:
                invalid_mask |= eco.demanders_mask(factor)
        for service, before in initial_joint.items():
            if self._joint.get(service) == before:
                continue
            for factor in self._partials.get(service, ()):
                invalid_mask |= eco.demanders_mask(factor)
            invalid_mask |= eco.linked_consumers_mask(service)
        for service, before in initial_pure.items():
            if self._pure.get(service) != before:
                invalid_mask |= self._children_mask(service, eco)
        if invalid_mask:
            invalid |= eco.decode_mask(invalid_mask)
        for table in self._levels.values():
            table.stale |= invalid
            table.moved |= names

    def _clear_retired(self, eco: "EcosystemIndex", nodes) -> Set[str]:
        """Retire-at-flush: drop the bits of every ecosystem id retired
        since the last flush, then place each name that is live again
        under its new id (its depth and signature entries carry over; the
        flush re-derives it as a touched service).  Returns the services
        whose parent masks held a retired id, which are parents-dirty."""
        retired = eco.ids.retired_mask()
        gone = retired & ~self._retired_seen
        self._retired_seen = retired
        if not gone:
            return set()
        keep = ~gone
        self._pure_buckets = [bucket & keep for bucket in self._pure_buckets]
        self._residual_index = {
            signature: mask & keep
            for signature, mask in self._residual_index.items()
            if mask & keep
        }
        for name in eco.decode_mask(gone) & nodes.keys():
            self._index_signature(name, self._sig.get(name), add=True)
            depth = self._pure.get(name)
            if depth is not None:
                self._pure_buckets[depth] |= self._bit(name)
        return {
            service
            for service, parents_mask in self._parents.items()
            if parents_mask & gone
        }

    def _bit(self, service: str) -> int:
        """The service's ecosystem-id bit (its latest id, so clearing a
        removed service after its id retired still hits the right bit)."""
        return 1 << self._graph.ecosystem_index().ids.latest_id(service)

    def _index_signature(
        self, service: str, sig: Optional[NodeSignature], add: bool
    ) -> None:
        """Add or remove one service's path signatures in the residual
        index (blocked and residual-free paths never parent anything)."""
        if sig is None:
            return
        bit = self._bit(service)
        index = self._residual_index
        for _path, residual, blocked in sig.entries:
            if blocked or not residual:
                continue
            if add:
                index[residual] = index.get(residual, 0) | bit
            else:
                remaining = index.get(residual, 0) & ~bit
                if remaining:
                    index[residual] = remaining
                else:
                    index.pop(residual, None)

    def _combining_flips(
        self, factor: CredentialFactor, eco: "EcosystemIndex"
    ) -> Optional[Set[str]]:
        """Services whose ``combinable_excluding`` answer this masking
        change flipped, by diffing the index's combinability profile
        against the last flush's snapshot.  ``None`` means the
        no-exclusion answer itself flipped (every demander is dirty)."""
        _kind, length = MASKABLE_FACTORS[factor]
        old_union, old_unique = self._combine_profiles.get(factor, (0, {}))
        new_union, new_unique = eco.combinability_profile(factor)
        self._combine_profiles[factor] = (new_union, new_unique)
        if (old_union >= length) != (new_union >= length):
            return None
        flips: Set[str] = set()
        for service in set(old_unique) | set(new_unique):
            before = old_union - old_unique.get(service, 0) >= length
            after = new_union - new_unique.get(service, 0) >= length
            if before != after:
                flips.add(service)
        return flips

    def _parenthood_candidates(
        self,
        provided_changes: Dict[
            str, Tuple[FrozenSet[CredentialFactor], FrozenSet[CredentialFactor]]
        ],
        eco: "EcosystemIndex",
    ) -> Set[str]:
        """Services whose full-capacity parenthood a touched node's
        provided-factor delta can flip: one subset test per distinct
        residual signature (a node parents a path exactly when it provides
        the path's whole residual, plus being named on linked paths)."""
        candidates_mask = 0
        for name, (old, new) in provided_changes.items():
            if old != new:
                candidates_mask |= self._signature_members(
                    name, lambda base: (base <= old) != (base <= new), eco
                )
        return set(eco.decode_mask(candidates_mask))

    def _children_mask(self, service: str, eco: "EcosystemIndex") -> int:
        """A superset of the services holding ``service`` as a
        full-capacity parent (exact on signatures without
        ``LINKED_ACCOUNT``): those whose residual it provides in full."""
        provided = self._provided.get(service, frozenset())
        mask = self._signature_members(service, provided.issuperset, eco)
        return mask & ~self._bit(service)

    def _signature_members(
        self, name: str, selects, eco: "EcosystemIndex"
    ) -> int:
        """Union of the residual-index masks whose signature ``selects``
        accepts by its non-linked base; a signature containing
        ``LINKED_ACCOUNT`` contributes only the services that name
        ``name`` on a linked path."""
        linked = CredentialFactor.LINKED_ACCOUNT
        mask = 0
        for signature, services_mask in self._residual_index.items():
            if linked in signature:
                if selects(signature - {linked}):
                    mask |= services_mask & eco.linked_consumers_mask(name)
            elif selects(signature):
                mask |= services_mask
        return mask

    # ------------------------------------------------------------------
    # Tier 1: signatures
    # ------------------------------------------------------------------

    def _signature(self, service: str) -> NodeSignature:
        graph = self._graph
        node = graph._nodes[service]
        direct = False
        entries = []
        for path in node.takeover_paths:
            cover = graph.coverage(node, path)
            if cover.is_direct:
                direct = True
            entries.append((path, cover.residual, cover.is_blocked))
        return NodeSignature(direct=direct, entries=tuple(entries))

    def _ensure_signatures(self) -> None:
        if self._sig is not None:
            return
        self._sig = {}
        self._direct = set()
        for service in self._graph._nodes:
            sig = self._signature(service)
            self._sig[service] = sig
            if sig.direct:
                self._direct.add(service)

    def _paths_on(
        self, service: str, platform: Optional[Platform]
    ) -> Tuple["AuthPath", ...]:
        """Platform-filtered takeover paths, memoized once per service --
        the single filtering point :meth:`is_direct` and
        :meth:`dependency_levels` share."""
        key = (service, platform)
        paths = self._platform_paths.get(key)
        if paths is None:
            paths = self._graph._nodes[service].paths_on(platform)
            self._platform_paths[key] = paths
        return paths

    # ------------------------------------------------------------------
    # Tier 2: the depth fixpoints
    # ------------------------------------------------------------------

    def _ensure_depths(self) -> None:
        if self._joint is not None:
            return
        self._scratch_builds.inc()
        with self._obs.span("levels.build", attacker=self._obs_label):
            self._build_depths()

    def _build_depths(self) -> None:
        self._ensure_signatures()
        graph = self._graph
        nodes = graph._nodes
        view = graph.attacker_index()
        self._buckets = FactorDepthBuckets()
        self._joint = {}
        self._partials = {}
        for service, node in nodes.items():
            self._partials[service] = self._partial_factors(node)
        eco = graph.ecosystem_index()
        for factor in MASKABLE_FACTORS:
            self._combine_profiles[factor] = eco.combinability_profile(factor)
        # Provided sets come from inverting the attacker index's postings
        # (one pass over the posting lists, not one membership-rule
        # evaluation per node x factor; the rules are the same by
        # construction, which the differential suite locks).
        provided_sets: Dict[str, Set[CredentialFactor]] = {
            service: set() for service in nodes
        }
        for factor in CredentialFactor:
            if (
                factor is CredentialFactor.LINKED_ACCOUNT
                or factor in self._innate
            ):
                continue
            providers = view.static_provider_set(factor)
            self._provider_counts[factor] = len(providers)
            for name in providers:
                provided_sets[name].add(factor)
        self._provided = {
            service: frozenset(factors)
            for service, factors in provided_sets.items()
        }
        self._residual_index = {}
        for service in nodes:
            self._index_signature(service, self._sig[service], add=True)
        self._scratch_joint(nodes)
        self._parents = {
            service: graph.full_capacity_parents_mask(service)
            for service in nodes
        }
        self._retired_seen = eco.ids.retired_mask()
        self._pure = {}
        self._scratch_pure(nodes)

    @staticmethod
    def _partial_factors(node: "TDGNode") -> FrozenSet[CredentialFactor]:
        return frozenset(
            factor
            for factor, (kind, _length) in MASKABLE_FACTORS.items()
            if node.pia_partial.get(kind)
        )

    def _scratch_joint(self, nodes) -> None:
        self._assign_scratch(
            [
                (service, 0)
                for service in nodes
                if self._sig[service].direct
            ]
        )
        unassigned = [s for s in nodes if s not in self._joint]
        for stage in range(1, MAX_DEPTH + 1):
            assigned = []
            for service in unassigned:
                cand = self._derive_joint(service)
                if cand is not None and cand <= stage:
                    assigned.append((service, cand))
            if not assigned:
                break
            self._assign_scratch(assigned)
            unassigned = [s for s in unassigned if s not in self._joint]

    def _assign_scratch(self, assignments) -> None:
        """Stage-batched joint assignment: one summary recount per touched
        factor instead of one per (service, factor) move."""
        touched_factors: Set[CredentialFactor] = set()
        for service, depth in assignments:
            self._joint[service] = depth
            for factor in self._provided.get(service, ()):
                self._buckets.place(service, factor, depth)
                touched_factors.add(factor)
            for factor in self._partials.get(service, ()):
                self._combine_cache.pop(factor, None)
        for factor in touched_factors:
            self._buckets.refresh(factor)

    def _scratch_pure(self, nodes) -> None:
        for service in nodes:
            if self._sig[service].direct:
                self._set_pure(service, 0)
        unassigned = [s for s in nodes if s not in self._pure]
        for stage in range(1, MAX_DEPTH + 1):
            assigned = []
            for service in unassigned:
                cand = self._derive_pure(service)
                if cand is not None and cand <= stage:
                    assigned.append((service, cand))
            if not assigned:
                break
            for service, cand in assigned:
                self._set_pure(service, cand)
            unassigned = [s for s in unassigned if s not in self._pure]

    # -- derivation -----------------------------------------------------

    def _derive_joint(self, service: str) -> Optional[int]:
        """The joint recurrence: 1 + min over paths of max over residual
        factors of the factor's minimal provider depth (``None`` when the
        service is unreachable or beyond the depth cap)."""
        sig = self._sig[service]
        if sig.direct:
            return 0
        best: Optional[int] = None
        for path, residual, blocked in sig.entries:
            if blocked:
                continue
            cost = 0
            for factor in residual:
                fcost = self._factor_cost(factor, path, service)
                if fcost is None:
                    cost = None
                    break
                if fcost > cost:
                    cost = fcost
            if cost is None:
                continue
            if best is None or cost < best:
                best = cost
                if best == 0:
                    break
        if best is None or best + 1 > MAX_DEPTH:
            return None
        return best + 1

    def _factor_cost(
        self, factor: CredentialFactor, path: "AuthPath", service: str
    ) -> Optional[int]:
        """Minimal compromise depth at which ``factor`` becomes poolable
        for ``path`` -- via a full provider (O(1) from the depth buckets)
        or by combining masked views in depth order."""
        if factor is CredentialFactor.LINKED_ACCOUNT:
            best: Optional[int] = None
            for name in path.linked_providers:
                if name == service:
                    continue
                depth = self._joint.get(name)
                if depth is not None and (best is None or depth < best):
                    best = depth
            return best
        best = self._buckets.min_excluding(factor, service)
        if factor in MASKABLE_FACTORS:
            combine = self._combine_min(factor, service)
            if combine is not None and (best is None or combine < best):
                best = combine
        return best

    def _combine_min(
        self, factor: CredentialFactor, excluded: str
    ) -> Optional[int]:
        """Minimal pool depth at which combined masked views (excluding
        ``excluded``'s own) reconstruct the factor's full value.

        Memoized per factor: the depth-sorted reachable views are computed
        once, every non-holder shares one answer (the ``None`` key) and
        holders get per-service entries; the whole factor entry is dropped
        whenever a holder's depth or view set changes."""
        eco = self._graph.ecosystem_index()
        entry = self._combine_cache.get(factor)
        if entry is None:
            position_masks = eco.partial_position_masks(factor)
            reachable = []
            joint = self._joint
            for name, _positions in eco.partial_holders[factor]:
                depth = joint.get(name)
                if depth is not None:
                    reachable.append((depth, name, position_masks[name]))
            reachable.sort(key=lambda item: item[0])
            entry = (reachable, {})
            self._combine_cache[factor] = entry
        reachable, answers = entry
        key: Optional[str] = (
            excluded if excluded in eco.partial_by_service[factor] else None
        )
        if key in answers:
            return answers[key]
        _kind, length = MASKABLE_FACTORS[factor]
        result: Optional[int] = None
        union = 0
        for depth, name, view_mask in reachable:
            if name == excluded:
                continue
            union |= view_mask
            if union.bit_count() >= length:
                result = depth
                break
        answers[key] = result
        return result

    def _derive_pure(self, service: str) -> Optional[int]:
        """The pure-full recurrence: 1 + the minimal depth among the
        service's memoized full-capacity parents (one big-int AND per
        depth bucket, not a scan over the parent set)."""
        if self._sig[service].direct:
            return 0
        parents_mask = self._parents.get(service, 0)
        if not parents_mask:
            return None
        buckets = self._pure_buckets
        for depth in range(MAX_DEPTH):
            if buckets[depth] & parents_mask:
                return depth + 1
        return None

    def _set_pure(self, service: str, new_depth: Optional[int]) -> None:
        old = self._pure.get(service)
        if old == new_depth:
            return
        bit = self._bit(service)
        if old is not None:
            self._pure_buckets[old] &= ~bit
        if new_depth is None:
            self._pure.pop(service, None)
        else:
            self._pure[service] = new_depth
            self._pure_buckets[new_depth] |= bit

    # -- incremental maintenance ----------------------------------------

    def _set_joint(
        self, service: str, new_depth: Optional[int]
    ) -> Set[CredentialFactor]:
        """Move one service's joint depth; returns the provided factors
        whose bucket summary -- hence possibly some consumer -- changed."""
        old = self._joint.get(service)
        if new_depth is None:
            if old is None:
                return set()
            del self._joint[service]
        else:
            self._joint[service] = new_depth
        changed: Set[CredentialFactor] = set()
        for factor in self._provided.get(service, ()):
            if self._buckets.move(service, factor, old, new_depth):
                changed.add(factor)
        for factor in self._partials.get(service, ()):
            self._combine_cache.pop(factor, None)
        return changed

    def _refresh_provider_memberships(
        self,
        touched: Set[str],
        removed: Set[str],
        nodes,
        initial_summaries: Dict[CredentialFactor, object],
    ) -> Tuple[
        Set[CredentialFactor],
        Dict[
            str,
            Tuple[FrozenSet[CredentialFactor], FrozenSet[CredentialFactor]],
        ],
    ]:
        """Re-seat touched services in the factor buckets and partial/
        provided memos (their provider postings may have moved).  Returns
        the factors whose depth summary moved -- the joint seeds beyond
        the coverage cone -- and each service's (old, new) provided sets
        for the parenthood subset tests."""
        view = self._graph.attacker_index()
        summary_moved: Set[CredentialFactor] = set()
        provided_changes: Dict[
            str,
            Tuple[FrozenSet[CredentialFactor], FrozenSet[CredentialFactor]],
        ] = {}
        for service in touched:
            old_provided = self._provided.get(service, frozenset())
            old_partials = self._partials.get(service, frozenset())
            if service in removed:
                new_provided: FrozenSet[CredentialFactor] = frozenset()
                new_partials: FrozenSet[CredentialFactor] = frozenset()
            else:
                node = nodes[service]
                new_provided = view.provided_factors(node) - self._innate
                new_partials = self._partial_factors(node)
            provided_changes[service] = (old_provided, new_provided)
            self._snap_summaries(
                old_provided | new_provided, initial_summaries
            )
            depth = self._joint.get(service)
            for factor in old_provided - new_provided:
                if self._buckets.move(service, factor, depth, None):
                    summary_moved.add(factor)
            for factor in new_provided - old_provided:
                if self._buckets.move(service, factor, None, depth):
                    summary_moved.add(factor)
            for factor in old_partials ^ new_partials:
                self._combine_cache.pop(factor, None)
            if service in removed:
                self._provided.pop(service, None)
                self._partials.pop(service, None)
            else:
                self._provided[service] = new_provided
                self._partials[service] = new_partials
        return summary_moved, provided_changes

    def _snap_summaries(
        self,
        factors,
        initial_summaries: Dict[CredentialFactor, object],
    ) -> None:
        """Record each factor's summary the first time a flush is about
        to move it (the baseline for net-change detection)."""
        buckets = self._buckets
        for factor in factors:
            if factor not in initial_summaries:
                initial_summaries[factor] = buckets.summary(factor)

    @staticmethod
    def _push(
        mask: int, wl: deque, inwl: Set[str], nodes, eco: "EcosystemIndex"
    ) -> None:
        """Queue every live service of ``mask`` not already queued."""
        decode = eco.ids.decode
        for target_id in iter_ids(mask):
            target = decode(target_id)
            if target in nodes and target not in inwl:
                inwl.add(target)
                wl.append(target)

    def _update_joint(
        self,
        dirty: Set[str],
        nodes,
        eco: "EcosystemIndex",
        initial_summaries: Dict[CredentialFactor, object],
        initial_joint: Dict[str, Optional[int]],
    ) -> Tuple[int, int]:
        """Two-phase delta-BFS on the joint map.  Every entry and factor
        summary is snapshotted into the ``initial_*`` maps at first touch,
        so the caller can compute net changes across both phases."""

        def move(service, depth, wl, inwl) -> None:
            initial_joint.setdefault(service, self._joint.get(service))
            self._snap_summaries(
                self._provided.get(service, ()), initial_summaries
            )
            # Forward-propagate along the reverse postings: demanders of
            # factors whose summary moved, services linking this one, and
            # demanders of maskable factors it holds views of.
            targets = eco.linked_consumers_mask(service)
            for factor in self._set_joint(service, depth):
                targets |= eco.demanders_mask(factor)
            for factor in self._partials.get(service, ()):
                targets |= eco.demanders_mask(factor)
            self._push(targets, wl, inwl, nodes, eco)

        return self._two_phase(
            dirty, nodes, self._joint, self._derive_joint, move
        )

    def _refresh_parents(self, dirty: Set[str], nodes) -> None:
        graph = self._graph
        for service in dirty:
            if service in nodes:
                self._parents[service] = graph.full_capacity_parents_mask(
                    service
                )
            else:
                self._parents.pop(service, None)

    def _update_pure(
        self,
        dirty: Set[str],
        nodes,
        eco: "EcosystemIndex",
        initial_pure: Dict[str, Optional[int]],
    ) -> Tuple[int, int]:
        """The same two-phase scheme on the pure-full map, propagating
        to each changed service's children."""

        def move(service, depth, wl, inwl) -> None:
            initial_pure.setdefault(service, self._pure.get(service))
            self._set_pure(service, depth)
            self._push(self._children_mask(service, eco), wl, inwl, nodes, eco)

        return self._two_phase(
            dirty, nodes, self._pure, self._derive_pure, move
        )

    @staticmethod
    def _two_phase(dirty, nodes, depths, derive, move) -> Tuple[int, int]:
        """The delta-BFS both depth maps share: ``move(service, depth,
        wl, inwl)`` sets one entry and queues its dependents.  Returns
        ``(phase A retractions, phase B re-derivations)`` -- the flush's
        actual bill, which the registry counters accumulate."""
        retracted = 0
        rederived = 0
        todo: Set[str] = set()
        wl = deque(dirty)
        inwl = set(dirty)
        # Phase A: retract entries whose derivation is no longer
        # supported (the map only shrinks, so the survivors form a
        # self-supported pre-fixpoint of the new system).
        while wl:
            service = wl.popleft()
            inwl.discard(service)
            old = depths.get(service)
            if old is None:
                if service in nodes:
                    todo.add(service)
                continue
            if service in nodes:
                if derive(service) == old:
                    continue
                todo.add(service)
            retracted += 1
            move(service, None, wl, inwl)
        # Phase B: descending chaotic re-derivation of the retracted cone;
        # converges to the unique (grounded) fixpoint.
        wl = deque(todo)
        inwl = set(todo)
        while wl:
            service = wl.popleft()
            inwl.discard(service)
            if service not in nodes:
                continue
            rederived += 1
            cand = derive(service)
            if cand != depths.get(service):
                move(service, cand, wl, inwl)
        return retracted, rederived

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def joint_depths(self) -> Dict[str, int]:
        """Minimal compromise depth per service, joint coverage allowed
        (unreachable services are absent).

        Invalidation contract: the map is never dropped wholesale.  A
        query first flushes pending deltas -- phase A retracts exactly
        the entries whose derivation the accumulated scope can reach
        (via the reverse-dependency postings), phase B re-derives the
        retracted cone to the unique fixpoint -- so the answer always
        equals a scratch rebuild, at O(affected cone) cost."""
        self._flush()
        self._ensure_depths()
        return dict(self._joint)

    def pure_full_depths(self) -> Dict[str, int]:
        """Minimal chain depth using only full-capacity steps.

        Same flush-then-serve contract as :meth:`joint_depths`,
        propagated to each changed service's children."""
        self._flush()
        self._ensure_depths()
        return dict(self._pure)

    def full_capacity_parents_map(self) -> Dict[str, FrozenSet[str]]:
        """The memoized full-capacity parents of every service.

        Entries are maintained under deltas (refreshed only inside the
        parenthood-dirty cone, including the residual-signature subset
        tests that find provided-factor flips) and are backed by the
        graph's :class:`~repro.levels.parents.SignatureParentsView`
        joins, so a refresh costs per-signature set algebra, not
        per-service intersection rebuilds."""
        self._flush()
        self._ensure_depths()
        decode = self._graph.ecosystem_index().decode_mask
        return {
            service: decode(mask) for service, mask in self._parents.items()
        }

    def direct_services(self) -> FrozenSet[str]:
        """Services the attacker profile takes over with no chaining.

        Served from the tier-1 signature cache; a delta re-splits
        coverage only for services in its dirty cone (touched services,
        availability transitions, combinability flips, linked-name
        changes)."""
        self._flush()
        self._ensure_signatures()
        return frozenset(self._direct)

    def is_direct(
        self, service: str, platform: Optional[Platform] = None
    ) -> bool:
        """Whether the profile alone takes the service over (optionally on
        one platform, through the shared platform-path memo)."""
        self._flush()
        self._ensure_signatures()
        if service not in self._graph._nodes:
            raise KeyError(service)
        if platform is None:
            return service in self._direct
        paths = set(self._paths_on(service, platform))
        return any(
            path in paths and not blocked and not residual
            for path, residual, blocked in self._sig[service].entries
        )

    def dependency_levels(
        self, platform: Platform
    ) -> Mapping[str, FrozenSet[DependencyLevel]]:
        """Per-service dependency levels on one platform, in node order.

        Cache/invalidation contract: one entry per (platform, service).
        An entry reads exactly the service's own coverage signature,
        its paths' pf0/pf1 parenthood intersections, and per-factor
        pool answers (depth summaries, combining thresholds, linked
        depths); the flush drops entries only along *net* changes to
        those inputs, so after a mutation only the reachable cone is
        reclassified and everything else is served verbatim.

        The answer is a read-only map, and the same object is returned
        until a flush changes an entry; a map once returned never
        changes."""
        return self._level_table(platform).view

    def level_fractions(
        self, platform: Platform
    ) -> Dict[DependencyLevel, float]:
        """Fraction of the platform's services in each level, read off
        the maintained counts (O(levels) once the table is current)."""
        table = self._level_table(platform)
        total = len(table.entries)
        if not total:
            raise ValueError(f"no services on {platform}")
        counts = table.counts
        return {level: counts[level] / total for level in DependencyLevel}

    def _level_table(self, platform: Platform) -> _LevelTable:
        self._flush()
        self._ensure_depths()
        table = self._levels.get(platform)
        if table is None:
            table = _LevelTable(self._graph._nodes)
            self._levels[platform] = table
        if table.stale:
            self._reclassify(table, platform)
        return table

    def _reclassify(self, table: _LevelTable, platform: Platform) -> None:
        """Reclassify the table's stale entries.  Entries that come out
        unchanged cost nothing further; otherwise the changes land in a
        copy of the served map, which is rebuilt in node order only when
        a service joined the platform or its node-order position may have
        moved (it was added or removed since the last read)."""
        nodes = self._graph._nodes
        pf0, pf1 = self._pure_buckets[0], self._pure_buckets[1]
        entries = table.entries
        moved = table.moved
        changes = []
        for service in table.stale:
            old = entries.get(service)
            paths = (
                self._paths_on(service, platform) if service in nodes else ()
            )
            new = self._classify(service, paths, pf0, pf1) if paths else None
            if new != old or (new is not None and service in moved):
                changes.append((service, old, new))
        table.stale = set()
        table.moved = set()
        if not changes:
            return
        entries = dict(entries)
        counts = dict(table.counts)
        reorder = False
        for service, old, new in changes:
            if old is not None:
                for level in old:
                    counts[level] -= 1
            if new is None:
                del entries[service]
                continue
            for level in new:
                counts[level] += 1
            entries[service] = new
            reorder = reorder or old is None or service in moved
        if reorder:
            entries = {
                service: entries[service]
                for service in nodes
                if service in entries
            }
        table.entries = entries
        table.view = types.MappingProxyType(entries)
        table.counts = counts

    def _classify(
        self,
        service: str,
        paths: Tuple["AuthPath", ...],
        pf0: int,
        pf1: int,
    ) -> FrozenSet[DependencyLevel]:
        """One service's level set: each path contributes its minimal
        category (a service lands in several categories when different
        reset combinations sit at different depths, which is why the
        paper's percentages do not sum to 100%)."""
        view = self._graph.attacker_index()
        by_path = {
            path: (residual, blocked)
            for path, residual, blocked in self._sig[service].entries
        }
        levels: Set[DependencyLevel] = set()
        for path in paths:
            residual, blocked = by_path[path]
            if blocked:
                continue
            if not residual:
                levels.add(DependencyLevel.DIRECT)
                continue
            joint = -1
            for factor in residual:
                joint &= view.provider_mask(factor, path)
            if joint & pf0:
                levels.add(DependencyLevel.ONE_LAYER)
            elif joint & pf1:
                levels.add(DependencyLevel.TWO_LAYER_FULL)
            elif all(
                (cost := self._factor_cost(factor, path, service)) is not None
                and cost <= 1
                for factor in residual
            ):
                levels.add(DependencyLevel.TWO_LAYER_MIXED)
        if not levels:
            # Either reachable only deeper than the paper's two-layer
            # categories (rare; folded into the mixed catch-all) or not
            # reachable at all on this platform -> safe.
            if self._reachable_on(service, paths, by_path):
                levels.add(DependencyLevel.TWO_LAYER_MIXED)
            else:
                levels.add(DependencyLevel.SAFE)
        return frozenset(levels)

    def _reachable_on(self, service: str, paths, by_path) -> bool:
        for path in paths:
            residual, blocked = by_path[path]
            if blocked:
                continue
            if all(
                self._factor_cost(factor, path, service) is not None
                for factor in residual
            ):
                return True
        return False
