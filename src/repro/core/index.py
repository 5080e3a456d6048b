"""Inverted indexes over a TDG node set -- the indexed TDG engine.

The seed implementation of :mod:`repro.core.tdg` answered every
"who can provide factor F?" question by rescanning all nodes, which made
Transformation Dependency Graph construction quadratic-to-cubic in
ecosystem size.  This module precomputes the two inversions the graph
queries over and over:

- :class:`EcosystemIndex` -- **attacker-independent** structure: for each
  personal-information kind, which services expose it in full
  (``holders_of``); for each maskable credential factor, which services
  hold a partial (masked) view and which character positions each view
  reveals (Insight 4's combining inputs); which services can feed a
  customer-service dossier; which services yield mailbox access.  It also
  carries the **reverse-dependency postings** the incremental level
  engine's delta-BFS walks forward: for each credential factor, which
  services *demand* it on some takeover path (``demanders``), and for
  each identity provider, which services accept it on a
  ``LINKED_ACCOUNT`` path (``linked_consumers_of``).
- :class:`AttackerIndex` -- one **per attacker profile**: for each
  credential factor, the exact set (and insertion-ordered tuple) of
  services that provide it under that profile's capabilities.  The
  provider semantics are bit-for-bit those of
  :meth:`~repro.core.tdg.TransformationDependencyGraph.provides`; the
  differential suite in ``tests/test_tdg_equivalence.py`` locks the
  equivalence against the brute-force reference.

Since the id-compaction pass, every posting here is **bitmask-backed**:
service names are interned onto dense monotone integer ids (the ids
*are* the insertion ordinals -- see :class:`repro.core.ids.Interner`),
and a posting is an ``int`` whose set bits are provider/demander/holder
ids.  Union, intersection, and difference in the maintenance paths are
single big-int ops.  The masks are the only stored form of the provider,
demander and linked-consumer postings: the accessors that return names
decode on demand and cache nothing (only the holder postings, which the
closure reads per round, keep a decoded view).  Because ids are
monotone, decoding a mask lowest-bit-first reproduces graph insertion
order, so the ordered tuples need no splice bookkeeping of their own.

One :class:`EcosystemIndex` can back many :class:`AttackerIndex` views,
which is what the batch APIs (``TransformationDependencyGraph.analyze_many``,
``ActFort.batch``) exploit: the measurement study and the defense
evaluation analyze several attacker profiles over shared indexes instead
of rebuilding per profile.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Tuple,
)

from repro.core.ids import Interner, iter_ids, mask_of
from repro.model.attacker import AttackerCapability, AttackerProfile
from repro.model.factors import (
    CredentialFactor,
    PersonalInfoKind,
    info_satisfying_factor,
    is_robust_factor,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tdg import TDGNode

#: Facts that can convince a customer-service agent (Case III's web path).
DOSSIER_KINDS: FrozenSet[PersonalInfoKind] = frozenset(
    {
        PersonalInfoKind.REAL_NAME,
        PersonalInfoKind.CITIZEN_ID,
        PersonalInfoKind.ADDRESS,
        PersonalInfoKind.CELLPHONE_NUMBER,
        PersonalInfoKind.EMAIL_ADDRESS,
        PersonalInfoKind.BANKCARD_NUMBER,
        PersonalInfoKind.ACQUAINTANCE_NAME,
        PersonalInfoKind.ORDER_HISTORY,
    }
)

#: Number of correct dossier facts a human agent demands.
DOSSIER_THRESHOLD = 3

#: Maskable credential factors: the info kind whose partial (masked) views
#: can be combined across providers to reconstruct the value (Insight 4),
#: plus the canonical value length the union must cover.
MASKABLE_FACTORS: Mapping[CredentialFactor, Tuple[PersonalInfoKind, int]] = {
    CredentialFactor.CITIZEN_ID: (PersonalInfoKind.CITIZEN_ID, 18),
    CredentialFactor.BANKCARD_NUMBER: (PersonalInfoKind.BANKCARD_NUMBER, 16),
}


class EcosystemIndex:
    """Attacker-independent inverted indexes over one node set.

    Node order is preserved everywhere (tuples follow the graph's insertion
    order) so that indexed queries enumerate providers in exactly the order
    the seed's linear scans did.  Postings are id bitmasks internally; the
    name-level attributes (``holders_of``, ``dossier_holders``) are kept
    decoded views, and the demander/linked accessors decode per call.
    """

    def __init__(self, nodes: Mapping[str, "TDGNode"]) -> None:
        self.names: Tuple[str, ...] = tuple(nodes)
        self.name_set: FrozenSet[str] = frozenset(nodes)
        # The interner's ids are the monotone per-service ordinals that back
        # the in-place postings updates: additions intern fresh maxima,
        # removals retire the id forever, so decoding any posting mask
        # lowest-bit-first always reproduces the tuple order a from-scratch
        # rebuild would derive from insertion order.
        self.ids: Interner[str] = Interner(self.names)

        holder_masks: Dict[PersonalInfoKind, int] = {}
        dossier_mask = 0
        for position, node in enumerate(nodes.values()):
            bit = 1 << position
            for kind in node.pia:
                holder_masks[kind] = holder_masks.get(kind, 0) | bit
            if len(node.pia & DOSSIER_KINDS) >= DOSSIER_THRESHOLD:
                dossier_mask |= bit
        #: kind -> bitmask of holders exposing it in full (source of truth).
        self._holder_masks: Dict[PersonalInfoKind, int] = holder_masks
        #: kind -> insertion-ordered holders exposing it in full (decoding
        #: view of ``_holder_masks``).
        self.holders_of: Dict[PersonalInfoKind, Tuple[str, ...]] = {}  # decoded view
        self._holder_sets: Dict[PersonalInfoKind, FrozenSet[str]] = {}  # decoded view
        for kind in holder_masks:
            self._decode_holders(kind)
        self._dossier_mask: int = dossier_mask
        #: Services whose PIA clears the customer-service dossier bar
        #: (decoding views of ``_dossier_mask``).
        self._dossier_ordered: Tuple[str, ...] = self.ids.decode_mask_ordered(
            dossier_mask
        )
        self.dossier_holders: FrozenSet[str] = frozenset(self._dossier_ordered)

        # Partial (masked) views per maskable factor, in insertion order.
        # These carry a per-holder payload (the revealed positions), so they
        # stay ordered tuples -- spliced via bisect over the parallel
        # ordinal-key lists in ``_partial_keys``.
        partial: Dict[  # noqa -- carries per-holder position payloads
            CredentialFactor, List[Tuple[str, FrozenSet[int]]]
        ] = {factor: [] for factor in MASKABLE_FACTORS}
        for name, node in nodes.items():
            for factor, (kind, _length) in MASKABLE_FACTORS.items():
                positions = node.pia_partial.get(kind, frozenset())
                if positions:
                    partial[factor].append((name, positions))
        #: factor -> ((service, revealed positions), ...) for every service
        #: holding a non-empty masked view of the factor's value.
        self.partial_holders: Dict[  # noqa -- payload tuples (see above)
            CredentialFactor, Tuple[Tuple[str, FrozenSet[int]], ...]
        ] = {factor: tuple(views) for factor, views in partial.items()}
        self.partial_by_service: Dict[
            CredentialFactor, Dict[str, FrozenSet[int]]
        ] = {
            factor: dict(views) for factor, views in partial.items()
        }
        self._partial_keys: Dict[CredentialFactor, List[int]] = {
            factor: [self.ids.id_of(name) for name, _positions in views]
            for factor, views in partial.items()
        }
        # Combinability-excluding-one-service in O(1): a position is lost by
        # excluding service ``s`` only if ``s`` is its sole holder.
        self._partial_union: Dict[CredentialFactor, FrozenSet[int]] = {}
        self._unique_coverage: Dict[CredentialFactor, Dict[str, int]] = {}
        #: factor -> {service: revealed-position bitmask} -- the combining
        #: checks union these ints instead of position frozensets.
        self._partial_masks: Dict[CredentialFactor, Dict[str, int]] = {}
        for factor in MASKABLE_FACTORS:
            self._recount_partial(factor)

        # Reverse-dependency postings: who *consumes* a factor / provider.
        demander_masks: Dict[CredentialFactor, int] = {}
        linked_masks: Dict[str, int] = {}
        for position, node in enumerate(nodes.values()):
            bit = 1 << position
            for factor in self._node_demands(node):
                demander_masks[factor] = demander_masks.get(factor, 0) | bit
            for provider in self._node_links(node):
                linked_masks[provider] = linked_masks.get(provider, 0) | bit
        #: factor -> bitmask of services with a takeover path demanding it.
        self._demander_masks: Dict[CredentialFactor, int] = demander_masks
        #: identity provider -> bitmask of services accepting it on a
        #: linked-account path.
        self._linked_masks: Dict[str, int] = linked_masks

    @staticmethod
    def _node_demands(node: "TDGNode") -> FrozenSet[CredentialFactor]:
        """Factors demanded by at least one of the node's takeover paths."""
        return frozenset(
            factor for path in node.takeover_paths for factor in path.factors
        )

    @staticmethod
    def _node_links(node: "TDGNode") -> FrozenSet[str]:
        """Identity providers accepted by the node's linked-account paths."""
        return frozenset(
            provider
            for path in node.takeover_paths
            for provider in path.linked_providers
        )

    # ------------------------------------------------------------------
    # Decoding views (mask -> names)
    # ------------------------------------------------------------------

    def _decode_holders(self, kind: PersonalInfoKind) -> None:
        """Refresh the name-level views of one holder posting from its mask
        (dropping them when the last holder is gone)."""
        mask = self._holder_masks.get(kind, 0)
        if mask:
            ordered = self.ids.decode_mask_ordered(mask)
            self.holders_of[kind] = ordered
            self._holder_sets[kind] = frozenset(ordered)
        else:
            self._holder_masks.pop(kind, None)
            self.holders_of.pop(kind, None)
            self._holder_sets.pop(kind, None)

    def demanders(self, factor: CredentialFactor) -> FrozenSet[str]:
        """Services with a takeover path demanding ``factor`` (decoded
        from :meth:`demanders_mask` per call)."""
        return self.ids.decode_mask(self._demander_masks.get(factor, 0))

    def demanders_mask(self, factor: CredentialFactor) -> int:
        """Bitmask form of :meth:`demanders`."""
        return self._demander_masks.get(factor, 0)

    def demanded_factors(self) -> Tuple[CredentialFactor, ...]:
        """Factors demanded by at least one takeover path."""
        return tuple(self._demander_masks)

    def ordinal_of(self, name: str) -> int:
        """The service's monotone insertion ordinal (== its interned id).

        Ordinals only grow: an added service always receives a fresh
        maximum (even one re-added under a name that was removed earlier),
        and a removal retires its ordinal forever.  Sorting by ordinal
        therefore reproduces graph insertion order at *any* version, which
        is what lets the record-stream cursors of
        :mod:`repro.streams` carry a segment watermark that stays
        meaningful across mutations: every segment a consumer has already
        drained keeps a strictly smaller ordinal than every segment still
        ahead of it, no matter how the node set churns in between.
        """
        return self.ids.id_of(name)

    def linked_consumers_of(self, provider: str) -> FrozenSet[str]:
        """Services accepting ``provider`` on a ``LINKED_ACCOUNT`` path
        (decoded from :meth:`linked_consumers_mask` per call)."""
        return self.ids.decode_mask(self._linked_masks.get(provider, 0))

    def linked_consumers_mask(self, provider: str) -> int:
        """Bitmask form of :meth:`linked_consumers_of`."""
        return self._linked_masks.get(provider, 0)

    def linked_providers(self) -> Tuple[str, ...]:
        """Identity providers accepted by at least one linked path."""
        return tuple(self._linked_masks)

    def decode_mask(self, mask: int) -> FrozenSet[str]:
        """Decode a service-id bitmask to the frozenset of names."""
        return self.ids.decode_mask(mask)

    def decode_mask_ordered(self, mask: int) -> Tuple[str, ...]:
        """Decode a service-id bitmask to names in insertion order."""
        return self.ids.decode_mask_ordered(mask)

    def encode_names(self, names) -> int:
        """The bitmask of the given (live) service names."""
        return self.ids.encode_live(names)

    def _recount_partial(self, factor: CredentialFactor) -> None:
        """Rebuild the combinability summaries for one maskable factor from
        its current masked-view postings (cheap: views are few)."""
        views = self.partial_holders[factor]
        position_masks = [mask_of(positions) for _name, positions in views]
        once = 0
        twice = 0
        for view_mask in position_masks:
            twice |= once & view_mask
            once |= view_mask
        self._partial_union[factor] = frozenset(iter_ids(once))
        solo = once & ~twice
        unique: Dict[str, int] = {}
        masks: Dict[str, int] = {}
        for (name, _positions), view_mask in zip(views, position_masks):
            masks[name] = view_mask
            only_here = (view_mask & solo).bit_count()
            if only_here:
                unique[name] = only_here
        self._unique_coverage[factor] = unique
        self._partial_masks[factor] = masks

    # ------------------------------------------------------------------
    # In-place maintenance (the incremental engine's hooks)
    # ------------------------------------------------------------------

    def _insert_position(self, keys: List[int], name: str) -> int:
        """Where ``name`` lands among a posting's ordinal-sorted parallel
        key list: one :func:`bisect.bisect_left`, O(log n)."""
        return bisect_left(keys, self.ids.id_of(name))

    def apply_node_change(
        self,
        name: str,
        old: "TDGNode | None",
        new: "TDGNode | None",
    ) -> None:
        """Update every posting in place for one node change.

        ``old is None`` means an addition (appended at the end of the graph
        order), ``new is None`` a removal, both non-None a replacement in
        place.  After the call the index is view-for-view identical to a
        fresh :class:`EcosystemIndex` over the mutated node set: decoded
        tuples stay sorted by service ordinal, holder keys exist only while
        they have at least one holder, and the combinability summaries are
        recounted for exactly the maskable factors whose views changed.
        (The masks themselves may differ from a fresh build's -- a fresh
        interner never saw the retired ids -- which is why equivalence is
        asserted on the decoded views.)
        """
        if old is None and new is None:
            raise ValueError("node change must have at least one side")
        if old is None:
            if name in self.ids:
                raise ValueError(f"duplicate node {name!r}")
            bit = 1 << self.ids.intern(name)
            self.names = self.names + (name,)
            self.name_set = self.name_set | {name}
        else:
            bit = 1 << self.ids.id_of(name)
            if new is None:
                self.names = tuple(n for n in self.names if n != name)
                self.name_set = self.name_set - {name}

        old_pia = old.pia if old is not None else frozenset()
        new_pia = new.pia if new is not None else frozenset()
        for kind in old_pia - new_pia:
            self._holder_masks[kind] &= ~bit
            self._decode_holders(kind)
        for kind in new_pia - old_pia:
            self._holder_masks[kind] = self._holder_masks.get(kind, 0) | bit
            self._decode_holders(kind)

        was_dossier = len(old_pia & DOSSIER_KINDS) >= DOSSIER_THRESHOLD and (
            old is not None
        )
        is_dossier = len(new_pia & DOSSIER_KINDS) >= DOSSIER_THRESHOLD and (
            new is not None
        )
        if was_dossier != is_dossier:
            if is_dossier:
                self._dossier_mask |= bit
            else:
                self._dossier_mask &= ~bit
            self._dossier_ordered = self.ids.decode_mask_ordered(
                self._dossier_mask
            )
            self.dossier_holders = frozenset(self._dossier_ordered)

        for factor, (kind, _length) in MASKABLE_FACTORS.items():
            old_positions = (
                old.pia_partial.get(kind, frozenset())
                if old is not None
                else frozenset()
            )
            new_positions = (
                new.pia_partial.get(kind, frozenset())
                if new is not None
                else frozenset()
            )
            if old_positions == new_positions:
                continue
            views = list(self.partial_holders[factor])
            keys = self._partial_keys[factor]
            if old_positions:
                at = bisect_left(keys, self.ids.id_of(name))
                del views[at]
                del keys[at]
            if new_positions:
                at = self._insert_position(keys, name)
                views.insert(at, (name, new_positions))
                keys.insert(at, self.ids.id_of(name))
                self.partial_by_service[factor][name] = new_positions
            else:
                self.partial_by_service[factor].pop(name, None)
            self.partial_holders[factor] = tuple(views)
            self._recount_partial(factor)

        old_demands = (
            self._node_demands(old) if old is not None else frozenset()
        )
        new_demands = (
            self._node_demands(new) if new is not None else frozenset()
        )
        for factor in old_demands - new_demands:
            remaining = self._demander_masks[factor] & ~bit
            if remaining:
                self._demander_masks[factor] = remaining
            else:
                del self._demander_masks[factor]
        for factor in new_demands - old_demands:
            self._demander_masks[factor] = (
                self._demander_masks.get(factor, 0) | bit
            )

        old_links = self._node_links(old) if old is not None else frozenset()
        new_links = self._node_links(new) if new is not None else frozenset()
        for provider in old_links - new_links:
            remaining = self._linked_masks[provider] & ~bit
            if remaining:
                self._linked_masks[provider] = remaining
            else:
                del self._linked_masks[provider]
        for provider in new_links - old_links:
            self._linked_masks[provider] = (
                self._linked_masks.get(provider, 0) | bit
            )

        if new is None:
            self.ids.retire(name)

    def holder_set(self, kind: PersonalInfoKind) -> FrozenSet[str]:
        """Services exposing ``kind`` in full."""
        return self._holder_sets.get(kind, frozenset())

    def holder_mask(self, kind: PersonalInfoKind) -> int:
        """Bitmask form of :meth:`holder_set`."""
        return self._holder_masks.get(kind, 0)

    def partial_position_masks(self, factor: CredentialFactor) -> Dict[str, int]:
        """Per-service revealed-position bitmasks for one maskable factor
        (the int form of ``partial_by_service``)."""
        return self._partial_masks[factor]

    def combinability_profile(
        self, factor: CredentialFactor
    ) -> Tuple[int, Dict[str, int]]:
        """The pair :meth:`combinable_excluding` answers derive from: the
        covered-position count over every masked view, and each holder's
        uniquely-held position count.  Snapshotting and diffing this is
        how the level engine decides whose coverage a masking change can
        actually flip."""
        return (
            len(self._partial_union[factor]),
            dict(self._unique_coverage[factor]),
        )

    def combinable_excluding(
        self, factor: CredentialFactor, excluded: str
    ) -> bool:
        """Whether masked views pooled from *every* node except ``excluded``
        reconstruct ``factor``'s full value (Insight 4 over the whole graph)."""
        maskable = MASKABLE_FACTORS.get(factor)
        if maskable is None:
            return False
        _kind, length = maskable
        union = self._partial_union[factor]
        lost = self._unique_coverage[factor].get(excluded, 0)
        return len(union) - lost >= length

    def view(self, attacker: AttackerProfile) -> "AttackerIndex":
        """Build the per-profile factor->provider index."""
        return AttackerIndex(self, attacker)


class AttackerIndex:
    """factor -> providers, resolved under one attacker profile.

    ``LINKED_ACCOUNT`` is the one path-dependent factor (the accepted
    identity providers are a property of the path); it is resolved per
    query in :meth:`provider_mask` / :meth:`providers_ordered`.  Static
    postings are id bitmasks assembled from the ecosystem's holder masks
    and are the only stored form: the name accessors
    (:meth:`static_provider_set`, :meth:`static_providers_ordered`,
    :meth:`providers_ordered`) decode them when called.
    """

    def __init__(
        self, ecosystem: EcosystemIndex, attacker: AttackerProfile
    ) -> None:
        self.ecosystem = ecosystem
        self.attacker = attacker
        self.innate = attacker.innately_satisfiable()
        self.can_social_engineer = (
            AttackerCapability.SOCIAL_ENGINEERING in attacker.capabilities
        )
        email_channel = (
            AttackerCapability.EMAIL_CHANNEL_AFTER_COMPROMISE
            in attacker.capabilities
        )
        self._email_channel = email_channel
        self._static_masks: Dict[CredentialFactor, int] = {}
        for factor in CredentialFactor:
            if factor is CredentialFactor.LINKED_ACCOUNT:
                continue  # path-dependent; resolved per query
            if is_robust_factor(factor) or factor is CredentialFactor.PASSWORD:
                mask = 0
            elif factor in (
                CredentialFactor.EMAIL_CODE,
                CredentialFactor.EMAIL_LINK,
            ):
                mask = (
                    ecosystem.holder_mask(PersonalInfoKind.MAILBOX_ACCESS)
                    if email_channel
                    else 0
                )
            elif factor is CredentialFactor.CUSTOMER_SERVICE:
                mask = (
                    ecosystem._dossier_mask if self.can_social_engineer else 0
                )
            else:
                mask = 0
                for kind in info_satisfying_factor(factor):
                    mask |= ecosystem.holder_mask(kind)
            self._static_masks[factor] = mask

    def provided_factors(self, node: "TDGNode") -> FrozenSet[CredentialFactor]:
        """Path-independent factors ``node`` provides under this profile.

        This is the membership rule behind the per-factor postings of
        ``__init__`` restated per node, which is what lets the incremental
        engine splice a single node's changes into the postings instead of
        rebuilding them (``LINKED_ACCOUNT`` stays path-resolved and robust
        factors and passwords are never provided, exactly as at build
        time).
        """
        provided = set()
        for factor in CredentialFactor:
            if factor is CredentialFactor.LINKED_ACCOUNT:
                continue
            if is_robust_factor(factor) or factor is CredentialFactor.PASSWORD:
                continue
            if factor in (
                CredentialFactor.EMAIL_CODE,
                CredentialFactor.EMAIL_LINK,
            ):
                if self._email_channel and (
                    PersonalInfoKind.MAILBOX_ACCESS in node.pia
                ):
                    provided.add(factor)
            elif factor is CredentialFactor.CUSTOMER_SERVICE:
                if self.can_social_engineer and (
                    len(node.pia & DOSSIER_KINDS) >= DOSSIER_THRESHOLD
                ):
                    provided.add(factor)
            elif node.pia & info_satisfying_factor(factor):
                provided.add(factor)
        return frozenset(provided)

    def update_for_node(
        self,
        name: str,
        old: "TDGNode | None",
        new: "TDGNode | None",
    ) -> FrozenSet[CredentialFactor]:
        """Splice one node change into the per-factor provider postings.

        Must run *after* the backing :class:`EcosystemIndex` has absorbed
        the same change (additions need the new service's id, and a removed
        service's id must still decode -- it does; the decode table is
        append-only).  Returns the factors whose provider sets changed --
        the seed of the graph-cache invalidation.
        """
        old_factors = (
            self.provided_factors(old) if old is not None else frozenset()
        )
        new_factors = (
            self.provided_factors(new) if new is not None else frozenset()
        )
        if old_factors == new_factors:
            return frozenset()
        for factor in old_factors - new_factors:
            self._static_masks[factor] &= ~self._bit_of(name)
        for factor in new_factors - old_factors:
            self._static_masks[factor] |= self._bit_of(name)
        return old_factors ^ new_factors

    def _bit_of(self, name: str) -> int:
        """The service's id bit.  Uses the latest-ever id so that removal
        splices still work after the ecosystem retired the id (this hook
        runs second)."""
        return 1 << self.ecosystem.ids.latest_id(name)

    def static_provider_set(self, factor: CredentialFactor) -> FrozenSet[str]:
        """Providers of a path-independent factor, with no exclusion.

        Raises ``KeyError`` for ``LINKED_ACCOUNT`` (whose providers are a
        property of the path); callers gate on that factor first.
        """
        return self.ecosystem.ids.decode_mask(self._static_masks[factor])

    def static_provider_mask(self, factor: CredentialFactor) -> int:
        """Bitmask form of :meth:`static_provider_set`."""
        return self._static_masks[factor]

    def static_providers_ordered(
        self, factor: CredentialFactor
    ) -> Tuple[str, ...]:
        """Like :meth:`static_provider_set`, in graph insertion order."""
        return self.ecosystem.ids.decode_mask_ordered(
            self._static_masks[factor]
        )

    def provider_mask(self, factor: CredentialFactor, path) -> int:
        """Bitmask of the services providing ``factor`` for ``path``, with
        the path's own service bit cleared (a node never parents
        itself)."""
        if factor is CredentialFactor.LINKED_ACCOUNT:
            mask = self.ecosystem.ids.encode_live(path.linked_providers)
        else:
            mask = self._static_masks[factor]
        own = self.ecosystem.ids.get(path.service)
        if own is not None:
            mask &= ~(1 << own)
        return mask

    def providers_ordered(
        self, factor: CredentialFactor, path
    ) -> Tuple[str, ...]:
        """:meth:`provider_mask` decoded in graph insertion order, matching
        the enumeration order of the seed's linear scans."""
        return self.ecosystem.ids.decode_mask_ordered(
            self.provider_mask(factor, path)
        )
