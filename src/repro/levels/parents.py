"""Per-signature parent postings: Definitions 1-2 as materialized views.

The paper's parent relations are per-service questions -- *which nodes
alone (Definition 1) or partially (Definition 2) unlock one of this
service's paths?* -- but their answers are almost entirely shared: for a
path whose residual factors do not include ``LINKED_ACCOUNT``, the
provider options depend only on the *residual-factor signature*, not on
the path or the service carrying it.  Hundreds of services collapse onto
a handful of signatures, so per-service intersection rebuilds inside a
mutation's dirty cone were doing the same set algebra over and over --
the ``full_capacity_parents`` recomputation tail the churn benchmarks
surfaced after the level engine went incremental.

:class:`SignatureParentsView` materializes, per signature ``S``:

- ``full_members(S)  = intersection over f in S of providers(f)`` --
  the nodes providing *every* factor of the signature (Definition 1's
  member set before self-exclusion);
- ``half_members(S)  = union minus intersection`` -- the nodes providing
  *some but not all* factors (Definition 2's member set).

Self-exclusion distributes over both unions and intersections, so a
service's parents are exact unions of these signature sets minus the
service itself; ``tests/test_dynamic_equivalence.py`` locks the
view-backed answers bit-for-bit against scratch rebuilds after every
mutation.

Since the id-compaction pass the member sets live as **service-id
bitmasks** keyed by **interned signature ids**
(:class:`~repro.core.ids.SignatureInterner`): a derivation is a chain of
big-int ANDs/ORs over the attacker index's provider masks, and a
retraction intersects the interner's factor -> signatures postings with
the live-entry mask instead of subset-testing every cached signature.
The masks are the only stored form; the frozenset accessors decode
them on demand.

Maintenance is the two-phase discipline of the level engine, one tier
down:

- **phase A (retract)**: a delta names the factors whose provider
  postings changed; :meth:`retract` drops exactly the signature entries
  containing one of them.  Signatures disjoint from the delta keep their
  member sets verbatim -- the common case, since most mutations move a
  few factors' postings.
- **phase B (re-derive)**: the next read of a retracted signature joins
  the *current* per-factor provider masks of
  :class:`~repro.core.index.AttackerIndex`, once per signature instead
  of once per (service, path).

The view is attacker-specific (provider postings are a profile
property); each :class:`~repro.core.tdg.TransformationDependencyGraph`
owns one lazily and routes its delta invalidation through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Tuple

from repro.core.ids import SignatureInterner, iter_ids
from repro.model.factors import CredentialFactor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tdg import TransformationDependencyGraph

__all__ = ["SignatureParentsView"]


class SignatureParentsView:
    """Materialized full/half parent member masks per residual signature.

    Keys are residual-factor signatures (frozensets of
    :class:`~repro.model.factors.CredentialFactor`) that never contain
    ``LINKED_ACCOUNT`` -- linked paths stay per-path in the graph, since
    their provider options are a property of the path.  Entries are
    derived on first read and survive every delta that does not touch
    one of their factors' provider postings.
    """

    def __init__(self, graph: "TransformationDependencyGraph") -> None:
        self._graph = graph
        #: Signature interner; ids key the mask tables below and its
        #: factor -> signature-ids postings drive retraction.
        self._sigs = SignatureInterner()
        #: Bitmask over signature ids: which entries are live (derived and
        #: not yet retracted).
        self._entries_mask: int = 0
        # sig id -> service-id bitmask (the only stored form; the name
        # accessors decode on demand).
        self._full_masks: Dict[int, int] = {}
        self._half_masks: Dict[int, int] = {}
        # Observability counters: signatures deltas retracted, and reads
        # that had to re-join the postings.  Registry children on the
        # graph's shared handle; ``stats()`` is the thin view over them
        # (``tests/test_levels_engine.py`` pins the retraction
        # accounting).
        obs = graph.instrumentation()
        label = graph.instrumentation_label()
        self._retractions = obs.counter(
            "repro_parents_retractions_total",
            "Signature member-set entries dropped by delta retraction.",
            labels=("attacker",),
        ).labels(attacker=label)
        self._derivations = obs.counter(
            "repro_parents_derivations_total",
            "Signature member-set joins derived on read.",
            labels=("attacker",),
        ).labels(attacker=label)

    # ------------------------------------------------------------------
    # Phase A: retraction
    # ------------------------------------------------------------------

    def retract(self, affected_factors: FrozenSet[CredentialFactor]) -> None:
        """Drop every signature entry containing an affected factor.

        Called by
        :meth:`~repro.core.tdg.TransformationDependencyGraph.invalidate_after_delta`
        after the indexes absorbed a delta.  The stale set is one bitmask
        intersection: the union of the interner's factor -> signature-id
        postings over the affected factors, AND the live-entry mask.
        Only signatures whose postings actually changed lose their
        entries; the next read re-derives exactly those (phase B), so a
        mutation's parent-set bill is O(affected signatures), not
        O(services x paths).
        """
        if not affected_factors or not self._entries_mask:
            return
        stale = 0
        for factor in affected_factors:
            stale |= self._sigs.containing(factor)
        stale &= self._entries_mask
        for sig_id in iter_ids(stale):
            # Both member sets derive together, so both retract together.
            del self._full_masks[sig_id]
            self._half_masks.pop(sig_id, None)
        self._entries_mask &= ~stale
        self._retractions.inc(stale.bit_count())

    # ------------------------------------------------------------------
    # Phase B: derivation on read
    # ------------------------------------------------------------------

    def _derive(self, signature: FrozenSet[CredentialFactor]) -> int:
        """Join the signature against the live provider masks; returns the
        signature's interned id."""
        self._derivations.inc()
        view = self._graph.attacker_index()
        sig_id = self._sigs.intern(signature)
        factors = iter(signature)
        first = view.static_provider_mask(next(factors))
        full = first
        union = first
        for factor in factors:
            mask = view.static_provider_mask(factor)
            full &= mask
            union |= mask
        self._full_masks[sig_id] = full
        self._half_masks[sig_id] = union & ~full
        self._entries_mask |= 1 << sig_id
        return sig_id

    def full_members_mask(
        self, signature: FrozenSet[CredentialFactor]
    ) -> int:
        """Service-id bitmask of nodes providing every factor of
        ``signature``."""
        sig_id = self._sigs.get(signature)
        if sig_id is None or not (self._entries_mask >> sig_id) & 1:
            sig_id = self._derive(signature)
        return self._full_masks[sig_id]

    def half_members_mask(
        self, signature: FrozenSet[CredentialFactor]
    ) -> int:
        """Service-id bitmask of nodes providing some but not all factors
        of ``signature``."""
        sig_id = self._sigs.get(signature)
        if sig_id is None or not (self._entries_mask >> sig_id) & 1:
            sig_id = self._derive(signature)
        return self._half_masks[sig_id]

    def full_members(
        self, signature: FrozenSet[CredentialFactor]
    ) -> FrozenSet[str]:
        """Nodes providing every factor of ``signature`` (Definition 1's
        member postings; callers subtract the consuming service)."""
        return self._graph.ecosystem_index().decode_mask(
            self.full_members_mask(signature)
        )

    def half_members(
        self, signature: FrozenSet[CredentialFactor]
    ) -> FrozenSet[str]:
        """Nodes providing some but not all factors of ``signature``
        (Definition 2's member postings, before self-exclusion)."""
        return self._graph.ecosystem_index().decode_mask(
            self.half_members_mask(signature)
        )

    # ------------------------------------------------------------------
    # Introspection (differential suites and observability)
    # ------------------------------------------------------------------

    def snapshot(
        self,
    ) -> Dict[
        FrozenSet[CredentialFactor], Tuple[FrozenSet[str], FrozenSet[str]]
    ]:
        """Every materialized signature's (full, half) member sets --
        what the differential suite compares against scratch joins."""
        return {
            self._sigs.decode(sig_id): (
                self.full_members(self._sigs.decode(sig_id)),
                self.half_members(self._sigs.decode(sig_id)),
            )
            for sig_id in iter_ids(self._entries_mask)
        }

    def interner_size(self) -> int:
        """Signatures ever interned (the id-table width; never shrinks)."""
        return self._sigs.high_water

    def stats(self) -> Dict[str, int]:
        """Entry/retraction/derivation counters (a thin view over the
        ``repro_parents_*_total`` registry children)."""
        return {
            "entries": self._entries_mask.bit_count(),
            "retractions": int(self._retractions.value),
            "derivations": int(self._derivations.value),
        }
