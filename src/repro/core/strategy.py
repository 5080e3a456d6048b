"""ActFort stage 4: Strategy Output.

Two queries, exactly as Section III-E frames them:

1. **Forward closure** -- given the accounts an attacker has already
   compromised (the Online Account Attacked Set, ``OAAS``), pool their
   personal information into the Initial Attack Database (``IAD``) and
   iterate: any account one of whose authentication paths is fully
   satisfiable from the IAD falls, its information joins the IAD, repeat.
   The fixpoint is the set of Potential Account Victims (``PAV``).

2. **Backward chain search** -- given a *target* account, search full
   capacity parents and merged half-capacity couples, recursing until
   every leaf is a node whose credential factors are just
   cellphone number + SMS code, and return the account chain.

Both operate on a :class:`~repro.core.tdg.TransformationDependencyGraph`;
the executable output (:class:`AttackChain`) is what
:mod:`repro.attack.executor` replays against the simulated internet.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.index import MASKABLE_FACTORS
from repro.core.tdg import (
    DOSSIER_KINDS,
    DOSSIER_THRESHOLD,
    TDGNode,
    TransformationDependencyGraph,
)
from repro.model.account import AuthPath
from repro.model.attacker import AttackerCapability
from repro.model.factors import (
    CredentialFactor,
    PersonalInfoKind,
    Platform,
    factor_satisfied_by_info,
)


@dataclasses.dataclass(frozen=True)
class ClosureEntry:
    """One account that fell during forward closure."""

    service: str
    round: int
    #: ``None`` for round-0 seeds of services with no takeover path (the
    #: account was handed to the attacker, not taken over).
    path: Optional[AuthPath]
    #: Which already-compromised service supplied each chained factor
    #: (factors the attacker profile covers are absent from the mapping).
    #: Insight-4 combining factors name every contributor joined with
    #: ``"+"``; use :meth:`source_services` for the decoded set.
    factor_sources: Mapping[CredentialFactor, str]

    def source_services(self) -> Tuple[str, ...]:
        """Every compromised service this entry's provenance consumed.

        Combining sources (``"a+b"``) are split into their contributors;
        synthetic markers (``"<dossier>"``, ``"<attacker-profile>"``) are
        dropped.  Sorted and de-duplicated.
        """
        names: Set[str] = set()
        for source in self.factor_sources.values():
            for part in source.split("+"):
                if part and not part.startswith("<"):
                    names.add(part)
        return tuple(sorted(names))


@dataclasses.dataclass(frozen=True)
class ForwardClosureResult:
    """The PAV with provenance."""

    entries: Tuple[ClosureEntry, ...]
    safe: FrozenSet[str]
    final_info: FrozenSet[PersonalInfoKind]

    @property
    def compromised(self) -> FrozenSet[str]:
        """Names of every potential account victim."""
        return frozenset(e.service for e in self.entries)

    def entry(self, service: str) -> ClosureEntry:
        """The closure entry for one compromised service."""
        for candidate in self.entries:
            if candidate.service == service:
                return candidate
        raise KeyError(f"{service!r} was not compromised")

    def by_round(self) -> Dict[int, Tuple[str, ...]]:
        """Services grouped by the round they fell in."""
        grouped: Dict[int, List[str]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.round, []).append(entry.service)
        return {r: tuple(names) for r, names in sorted(grouped.items())}

    def support_index(self) -> Dict[str, FrozenSet[str]]:
        """Reverse support postings: service -> entries it propped up.

        For every compromised service, the set of closure entries whose
        winning path consumed it (directly, as a factor source or as an
        Insight-4 combining contributor).  This is the provenance half of
        the closure's support set; the per-round IAD snapshots kept by
        :class:`ClosureSupportRecord` are the information half.
        """
        dependents: Dict[str, Set[str]] = {}
        for entry in self.entries:
            for source in entry.source_services():
                dependents.setdefault(source, set()).add(entry.service)
        return {name: frozenset(deps) for name, deps in dependents.items()}


@dataclasses.dataclass
class ClosureSupportRecord:
    """One cached closure plus the support postings its re-derivation needs.

    Recorded while the fixpoint runs (scratch or resumed):

    - ``round_entries[r]`` -- the entries that fell in round ``r`` (index 0
      holds the seeds), i.e. the forward posting round -> dependents.
    - ``pre_states[r - 1]`` -- the ``(IAD info, compromised names)``
      snapshot going *into* round ``r``, for every scanned round including
      the final empty one.  These are the aggregate support postings the
      incremental pass diffs: a surviving round is exactly one whose
      pre-state still matches bit-for-bit.
    - ``dirty`` -- node snapshots taken when a delta first reached the
      record's support set (name -> node at record time, ``None`` if the
      service did not exist then).  Empty means the record is clean and
      ``result`` is served as-is; non-empty means the next query resumes
      the fixpoint through :meth:`StrategyEngine.forward_closure`,
      retracting only the rounds whose support moved.
    """

    result: ForwardClosureResult
    round_entries: Tuple[Tuple[ClosureEntry, ...], ...]
    pre_states: Tuple[
        Tuple[FrozenSet[PersonalInfoKind], FrozenSet[str]], ...
    ]
    dirty: Dict[str, Optional[TDGNode]] = dataclasses.field(
        default_factory=dict
    )

    def pre_state(
        self, round_number: int
    ) -> Optional[Tuple[FrozenSet[PersonalInfoKind], FrozenSet[str]]]:
        """The recorded ``(info, compromised)`` snapshot entering a round,
        or ``None`` beyond the recorded horizon."""
        index = round_number - 1
        if 0 <= index < len(self.pre_states):
            return self.pre_states[index]
        return None

    def reused_entries(self, round_number: int) -> Tuple[ClosureEntry, ...]:
        """The recorded entries of one round (empty past the horizon)."""
        if round_number < len(self.round_entries):
            return self.round_entries[round_number]
        return ()


#: :meth:`ProvenanceTable.source` answer for a maskable factor the IAD does
#: not satisfy: the source is an Insight-4 combining cover, which depends
#: on the tested path (its own service's masked view cannot contribute).
_COMBINED = object()


class ProvenanceTable:
    """The provenance lookups of one closure round, memoised.

    Built from the round's pre-state -- the IAD ``info``, the
    ``compromised`` names and the pinned ``email_provider`` -- and shared
    by every takeover test of the round.  Every answer it memoises
    depends only on that pre-state and the factor; the two path-dependent
    parts stay with the caller (:meth:`StrategyEngine._factor_source`):
    ``LINKED_ACCOUNT`` and the combining cover's exclusion of the tested
    service.  Each lookup runs at most once per table:

    - the alphabetically first compromised holder of each info kind;
    - the source of each path-independent factor (info-satisfied, email
      and customer-service factors), or :data:`_COMBINED`;
    - each maskable factor's compromised masked-view holders ranked by
      ``(-len(positions), name)``, the greedy cover's walk order.
    """

    __slots__ = (
        "info",
        "compromised",
        "_tdg",
        "_email_provider",
        "_sorted_info",
        "_holders",
        "_sources",
        "_views",
    )

    def __init__(
        self,
        tdg: TransformationDependencyGraph,
        info: FrozenSet[PersonalInfoKind],
        compromised: FrozenSet[str],
        email_provider: Optional[str] = None,
    ) -> None:
        self.info = info
        self.compromised = compromised
        self._tdg = tdg
        self._email_provider = email_provider
        self._sorted_info: Optional[Tuple[PersonalInfoKind, ...]] = None
        self._holders: Dict[PersonalInfoKind, Optional[str]] = {}
        self._sources: Dict[CredentialFactor, object] = {}
        self._views: Dict[
            CredentialFactor, Tuple[Tuple[str, FrozenSet[int]], ...]
        ] = {}

    def holder(self, kind: PersonalInfoKind) -> Optional[str]:
        """The alphabetically first compromised service exposing ``kind``."""
        if kind not in self._holders:
            holders = self._tdg.ecosystem_index().holder_set(kind)
            self._holders[kind] = min(
                holders & self.compromised, default=None
            )
        return self._holders[kind]

    def source(self, factor: CredentialFactor) -> object:
        """The memoised source of a factor other than ``LINKED_ACCOUNT``:
        a service name, a synthetic marker, ``None`` (unsatisfiable this
        round) or :data:`_COMBINED`."""
        try:
            return self._sources[factor]
        except KeyError:
            source = self._sources[factor] = self._derive_source(factor)
            return source

    def masked_views(
        self, factor: CredentialFactor
    ) -> Tuple[Tuple[str, FrozenSet[int]], ...]:
        """Compromised holders of a masked view of ``factor``'s value with
        their revealed positions, widest view first, ties by name."""
        if factor not in self._views:
            views = self._tdg.ecosystem_index().partial_by_service[factor]
            self._views[factor] = tuple(
                sorted(
                    (
                        (name, positions)
                        for name, positions in views.items()
                        if name in self.compromised
                    ),
                    key=lambda item: (-len(item[1]), item[0]),
                )
            )
        return self._views[factor]

    def _derive_source(self, factor: CredentialFactor) -> object:
        capabilities = self._tdg.attacker.capabilities
        info = self.info
        if factor in (CredentialFactor.EMAIL_CODE, CredentialFactor.EMAIL_LINK):
            if AttackerCapability.EMAIL_CHANNEL_AFTER_COMPROMISE not in capabilities:
                return None
            pinned = self._email_provider
            if pinned is not None:
                return pinned if pinned in self.compromised else None
            if PersonalInfoKind.MAILBOX_ACCESS not in info:
                return None
            return self.holder(PersonalInfoKind.MAILBOX_ACCESS)
        if factor is CredentialFactor.CUSTOMER_SERVICE:
            if AttackerCapability.SOCIAL_ENGINEERING not in capabilities:
                return None
            dossier = info & DOSSIER_KINDS
            if len(dossier) < DOSSIER_THRESHOLD:
                return None
            # Canonical dossier kind: ``next(iter(...))`` would make the
            # provenance depend on hash-iteration order and break
            # bit-for-bit closure comparisons across runs.
            canonical = min(dossier, key=lambda kind: kind.value)
            return self.holder(canonical) or "<dossier>"
        if factor_satisfied_by_info(factor, info):
            if self._sorted_info is None:
                self._sorted_info = tuple(sorted(info, key=lambda k: k.value))
            for kind in self._sorted_info:
                if factor_satisfied_by_info(factor, {kind}):
                    source = self.holder(kind)
                    if source is not None:
                        return source
            return "<attacker-profile>"
        return _COMBINED if factor in MASKABLE_FACTORS else None


@dataclasses.dataclass(frozen=True)
class ChainStep:
    """One takeover in an executable attack chain."""

    service: str
    #: ``None`` only for a seeded target: the account was already in the
    #: attacker's hands, no takeover path is replayed.
    path: Optional[AuthPath]
    factor_sources: Mapping[CredentialFactor, str]

    def describe(self) -> str:
        """E.g. ``alipay via reset[mobile]: CID+PN+SC (CID<-ctrip)``."""
        sources = ", ".join(
            f"{factor.value}<-{src}"
            for factor, src in sorted(
                self.factor_sources.items(), key=lambda kv: kv[0].value
            )
        )
        suffix = f" ({sources})" if sources else ""
        via = (
            self.path.describe()
            if self.path is not None
            else "(already compromised)"
        )
        return f"{self.service} via {via}{suffix}"


@dataclasses.dataclass(frozen=True)
class AttackChain:
    """An ordered, executable chain ending at the target account."""

    target: str
    steps: Tuple[ChainStep, ...]

    @property
    def depth(self) -> int:
        """Number of intermediate accounts before the target."""
        return len(self.steps) - 1

    @property
    def services(self) -> Tuple[str, ...]:
        """Services in takeover order (target last)."""
        return tuple(step.service for step in self.steps)

    def describe(self) -> str:
        """Multi-line human-readable rendering of the chain."""
        lines = [f"attack chain -> {self.target}:"]
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  {index}. {step.describe()}")
        return "\n".join(lines)


class StrategyEngine:
    """Strategy Output over one TDG."""

    def __init__(self, tdg: TransformationDependencyGraph) -> None:
        self._tdg = tdg

    @property
    def tdg(self) -> TransformationDependencyGraph:
        """The graph the engine searches."""
        return self._tdg

    # ------------------------------------------------------------------
    # Scenario 1: forward closure (OAAS -> PAV)
    # ------------------------------------------------------------------

    def forward_closure(
        self,
        initially_compromised: Iterable[str] = (),
        extra_info: Iterable[PersonalInfoKind] = (),
        email_provider: Optional[str] = None,
    ) -> ForwardClosureResult:
        """Compute the PAV from an initial attacked set.

        ``initially_compromised`` seeds the OAAS (round 0 entries with no
        provenance); ``extra_info`` adds breach data to the IAD directly
        (the paper's "when the data breach happens in the Internet").
        ``email_provider`` pins email-code factors to one specific provider
        service -- pass the victim's actual provider to make the resulting
        chains executable against that victim (at ecosystem level, any
        compromised email service qualifies).

        Results are memoized on the graph keyed by the argument triple and
        kept valid under mutation deltas by
        :meth:`~repro.core.tdg.TransformationDependencyGraph.revalidate_closures`:
        a delta that never reaches the closure's compromised support set
        cannot change it and the cached record survives verbatim, while a
        support-reaching delta only marks the record dirty with node
        snapshots.  The next query then *resumes* the fixpoint here instead
        of recomputing it: every round whose recorded pre-state (IAD info +
        compromised set) still matches is reused verbatim with only the
        touched services re-tested, and the scan falls back to the full
        per-round derivation exactly from the first round whose support
        moved.  Repeated PAV queries -- ``ActFort.potential_victims``, the
        insight checks, the defense ablation -- therefore cost one fixpoint
        run per graph state, and post-mutation re-serves cost only the
        retracted cone.
        """
        initially_compromised = tuple(initially_compromised)
        extra_info = frozenset(extra_info)
        cache_key = (initially_compromised, extra_info, email_provider)
        record = self._tdg.closure_cache_get(cache_key)
        if record is not None and not record.dirty:
            return record.result
        obs = self._tdg.instrumentation()
        with obs.span(
            "closure.run",
            attacker=self._tdg.instrumentation_label(),
            seeds=len(initially_compromised),
            resumed=record is not None,
        ) as span:
            fresh = self._run_closure(
                initially_compromised, extra_info, email_provider, record, span
            )
        self._tdg.closure_cache_put(
            cache_key, fresh, resumed=record is not None
        )
        return fresh.result

    def _run_closure(
        self,
        initially_compromised: Tuple[str, ...],
        extra_info: FrozenSet[PersonalInfoKind],
        email_provider: Optional[str],
        base: Optional[ClosureSupportRecord],
        span=None,
    ) -> ClosureSupportRecord:
        """Run the PAV fixpoint, resuming from ``base`` when possible.

        With ``base=None`` this is the scratch derivation.  With a dirty
        ``base`` it is the two-phase incremental pass: phase A retracts
        exactly the rounds whose support moved -- a round survives when its
        recorded pre-state (IAD info + compromised set) matches the current
        run bit-for-bit and no compromised service's PIA postings changed --
        and phase B re-derives from that retracted frontier, re-testing
        only the touched services inside surviving rounds.  Both phases
        walk rounds in ascending order, so the retraction descends the
        dependency rounds transitively: once one round's support moves,
        every later round re-derives (their pre-states can no longer
        match).  The output is bit-for-bit what the scratch run over the
        current graph produces (entries order included), which the
        differential suites lock.
        """
        graph_nodes = self._tdg._nodes
        dirty = base.dirty if base is not None else {}
        # Names whose *information postings* (complete or masked PIA)
        # differ from the record's baseline.  A surviving round may reuse
        # another service's entry only while no such name is compromised:
        # provenance (first holders, combining pools) reads the
        # PIA postings of compromised accounts, so a changed posting can
        # move provenance even when the round's info/compromised state is
        # unchanged.
        provenance_dirty: Set[str] = set()
        for name, snapshot in dirty.items():
            current = graph_nodes.get(name)
            if (
                snapshot is None
                or current is None
                or snapshot.pia != current.pia
                or snapshot.pia_partial != current.pia_partial
            ):
                provenance_dirty.add(name)

        attacker = self._tdg.attacker
        info: Set[PersonalInfoKind] = set(attacker.known_info) | set(extra_info)
        compromised: Dict[str, ClosureEntry] = {}
        for name in initially_compromised:
            node = self._tdg.node(name)
            compromised[name] = ClosureEntry(
                service=name,
                round=0,
                path=node.takeover_paths[0] if node.takeover_paths else None,
                factor_sources={},
            )
            info |= node.pia

        entries: List[ClosureEntry] = list(compromised.values())
        round_entries: List[Tuple[ClosureEntry, ...]] = [tuple(entries)]
        pre_states: List[
            Tuple[FrozenSet[PersonalInfoKind], FrozenSet[str]]
        ] = []
        ordinals: Optional[Dict[str, int]] = None
        round_number = 0
        rounds_reused = 0
        rounds_scanned = 0
        takeover_tests = 0
        while True:
            round_number += 1
            pre_info = frozenset(info)
            pre_compromised = frozenset(compromised)
            pre_states.append((pre_info, pre_compromised))
            table = ProvenanceTable(
                self._tdg, pre_info, pre_compromised, email_provider
            )
            old_state = (
                base.pre_state(round_number) if base is not None else None
            )
            fallen: List[ClosureEntry] = []
            if (
                old_state is not None
                and old_state[0] == pre_info
                and old_state[1] == pre_compromised
                and not (provenance_dirty & pre_compromised)
            ):
                # Surviving round: same support, so every untouched
                # service's decision (and provenance) is unchanged.  Reuse
                # its entries verbatim; re-test only the touched services.
                rounds_reused += 1
                fallen = [
                    entry
                    for entry in base.reused_entries(round_number)
                    if entry.service not in dirty
                ]
                retested: List[ClosureEntry] = []
                for name in dirty:
                    node = graph_nodes.get(name)
                    if node is None or name in compromised:
                        continue
                    takeover_tests += 1
                    takeover = self._try_takeover(node, table)
                    if takeover is not None:
                        retested.append(
                            ClosureEntry(
                                service=name,
                                round=round_number,
                                path=takeover[0],
                                factor_sources=takeover[1],
                            )
                        )
                if retested:
                    if ordinals is None:
                        ordinals = {
                            name: index
                            for index, name in enumerate(graph_nodes)
                        }
                    fallen.extend(retested)
                    fallen.sort(key=lambda entry: ordinals[entry.service])
            else:
                # Retracted frontier: the round's support moved (or the
                # record never reached this far) -- full per-round scan.
                rounds_scanned += 1
                for node in self._tdg.nodes:
                    if node.service in compromised:
                        continue
                    takeover_tests += 1
                    takeover = self._try_takeover(node, table)
                    if takeover is None:
                        continue
                    fallen.append(
                        ClosureEntry(
                            service=node.service,
                            round=round_number,
                            path=takeover[0],
                            factor_sources=takeover[1],
                        )
                    )
            if not fallen:
                break
            round_entries.append(tuple(fallen))
            for entry in fallen:
                compromised[entry.service] = entry
                entries.append(entry)
                info |= graph_nodes[entry.service].pia

        obs = self._tdg.instrumentation()
        label = self._tdg.instrumentation_label()
        obs.counter(
            "repro_closure_rounds_reused_total",
            "Fixpoint rounds reused verbatim by a resumed closure run.",
            labels=("attacker",),
        ).labels(attacker=label).inc(rounds_reused)
        obs.counter(
            "repro_closure_rounds_scanned_total",
            "Fixpoint rounds derived by a full per-round service scan.",
            labels=("attacker",),
        ).labels(attacker=label).inc(rounds_scanned)
        if span is not None:
            span.set_attribute("rounds", round_number)
            span.set_attribute("rounds_reused", rounds_reused)
            span.set_attribute("rounds_scanned", rounds_scanned)
            span.set_attribute("takeover_tests", takeover_tests)
            span.set_attribute("compromised", len(compromised))

        safe = frozenset(graph_nodes) - compromised.keys()
        result = ForwardClosureResult(
            entries=tuple(entries),
            safe=safe,
            final_info=frozenset(info),
        )
        if base is not None and result == base.result:
            # The delta reached the support set but cancelled out (or only
            # re-derived identical entries): keep the old result object so
            # downstream identity-based caching stays warm.
            result = base.result
        return ClosureSupportRecord(
            result=result,
            round_entries=tuple(round_entries),
            pre_states=tuple(pre_states),
        )

    def _try_takeover(
        self, node: TDGNode, table: ProvenanceTable
    ) -> Optional[Tuple[AuthPath, Dict[CredentialFactor, str]]]:
        """Return (path, provenance) if the node falls to the table's
        pre-state."""
        innate = self._tdg.innate_factors()
        best: Optional[Tuple[AuthPath, Dict[CredentialFactor, str]]] = None
        for path in node.takeover_paths:
            sources: Dict[CredentialFactor, str] = {}
            ok = True
            for factor in path.factors:
                if factor in innate:
                    continue
                source = self._factor_source(factor, path, table)
                if source is None:
                    ok = False
                    break
                sources[factor] = source
            if ok and (best is None or len(path.factors) < len(best[0].factors)):
                best = (path, sources)
        return best

    def _factor_source(
        self,
        factor: CredentialFactor,
        path: AuthPath,
        table: ProvenanceTable,
    ) -> Optional[str]:
        """Which compromised service supplies ``factor``, if any.

        Only the two path-dependent answers are derived here; every
        other source is the round's memoised one.
        """
        if factor is CredentialFactor.LINKED_ACCOUNT:
            for provider in sorted(path.linked_providers):
                if provider in table.compromised:
                    return provider
            return None
        source = table.source(factor)
        if source is _COMBINED:
            contributors = self._combining_contributors(factor, path, table)
            return "+".join(contributors) if contributors else None
        return source

    @staticmethod
    def _combining_contributors(
        factor: CredentialFactor,
        path: AuthPath,
        table: ProvenanceTable,
    ) -> Optional[Tuple[str, ...]]:
        """Insight 4: a greedy minimal set of compromised accounts (other
        than the tested one) whose masked views of ``factor``'s value union
        to the full string, or ``None``."""
        length = MASKABLE_FACTORS[factor][1]
        covered: Set[int] = set()
        chosen: List[str] = []
        for name, positions in table.masked_views(factor):
            if name == path.service or not positions - covered:
                continue
            covered |= positions
            chosen.append(name)
            if len(covered) >= length:
                return tuple(sorted(chosen))
        return None

    # ------------------------------------------------------------------
    # Scenario 2: backward chain search (target -> chain)
    # ------------------------------------------------------------------

    def attack_chain(
        self,
        target: str,
        platform: Optional[Platform] = None,
        email_provider: Optional[str] = None,
        initially_compromised: Iterable[str] = (),
        extra_info: Iterable[PersonalInfoKind] = (),
    ) -> Optional[AttackChain]:
        """Return an executable chain ending at ``target``, or ``None``.

        The chain is reconstructed from the forward closure (so it is
        guaranteed executable) and is minimal in the closure-round sense:
        every step's chained factors come from services that fell strictly
        earlier.  ``platform`` restricts the *target's* final path only --
        middle accounts use whichever client is easiest, as real attackers
        do.  ``email_provider`` pins email codes to the victim's actual
        provider so the chain is executable against a concrete victim.
        ``initially_compromised`` / ``extra_info`` seed the underlying
        closure (scenario 1's OAAS / breach data); a seeded target's own
        step carries ``path=None`` -- nothing to replay, the account was
        already in the attacker's hands.
        """
        extra_info = frozenset(extra_info)
        closure = self.forward_closure(
            initially_compromised=initially_compromised,
            extra_info=extra_info,
            email_provider=email_provider,
        )
        by_name = {entry.service: entry for entry in closure.entries}
        if target not in by_name:
            return None
        target_entry = by_name[target]
        if platform is not None and (
            target_entry.path is None
            or target_entry.path.platform is not platform
        ):
            # Seeded entries (path None) have no recorded takeover path to
            # restrict; both cases re-derive one on the requested platform.
            replacement = self._retarget_platform(
                target, platform, closure, by_name, extra_info, email_provider
            )
            if replacement is None:
                return None
            target_entry = replacement

        ordered: List[ChainStep] = []
        visited: Set[str] = set()

        def visit(entry: ClosureEntry) -> None:
            if entry.service in visited:
                return
            visited.add(entry.service)
            # Combining sources name several contributors ("a+b"); every
            # contributor's takeover is a prerequisite step, so each is
            # visited -- an entry joined string would match nothing and
            # silently drop the prerequisite takeovers from the chain.
            for source in entry.source_services():
                if source in by_name:
                    visit(by_name[source])
            ordered.append(
                ChainStep(
                    service=entry.service,
                    path=entry.path,
                    factor_sources=dict(entry.factor_sources),
                )
            )

        visit(target_entry)
        return AttackChain(target=target, steps=tuple(ordered))

    def _retarget_platform(
        self,
        target: str,
        platform: Platform,
        closure: ForwardClosureResult,
        by_name: Mapping[str, ClosureEntry],
        extra_info: FrozenSet[PersonalInfoKind] = frozenset(),
        email_provider: Optional[str] = None,
    ) -> Optional[ClosureEntry]:
        """Re-derive the target's entry restricted to one platform."""
        node = self._tdg.node(target)
        platform_node = TDGNode(
            service=node.service,
            domain=node.domain,
            takeover_paths=node.paths_on(platform),
            pia=node.pia,
            pia_partial=node.pia_partial,
        )
        # Cannot use the target's own info -- but only strip the kinds the
        # target *exclusively* contributed.  Subtracting ``target.pia``
        # wholesale would also discard kinds other compromised accounts
        # legitimately hold, so rebuild the IAD from the attacker profile,
        # the closure's breach data, and every other compromised account's
        # postings instead.
        others = closure.compromised - {target}
        available: Set[PersonalInfoKind] = (
            set(self._tdg.attacker.known_info) | extra_info
        )
        for name in others:
            available |= self._tdg.node(name).pia
        takeover = self._try_takeover(
            platform_node,
            ProvenanceTable(
                self._tdg, frozenset(available), others, email_provider
            ),
        )
        if takeover is None:
            return None
        path, sources = takeover
        return ClosureEntry(
            service=target,
            round=by_name[target].round,
            path=path,
            factor_sources=sources,
        )

    def reachable_targets(self) -> FrozenSet[str]:
        """Every service some chain reaches under the attacker profile."""
        return self.forward_closure().compromised
