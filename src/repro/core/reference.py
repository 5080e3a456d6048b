"""The brute-force reference TDG engine -- the differential-testing oracle.

This is the *seed* implementation of the Transformation Dependency Graph
query layer, kept verbatim: every parent/couple/level query answers by
linearly rescanning all nodes (``itertools.product`` / ``combinations``
enumeration, all-pairs coverage scans).  It is deliberately simple and
obviously faithful to Section III-D / IV-B of the paper, which makes it the
equivalence oracle for the indexed engine in :mod:`repro.core.tdg`:

- ``tests/test_tdg_equivalence.py`` asserts, over seeded catalog ecosystems
  and every attacker-capability profile, that the indexed engine produces
  identical strong/weak edge sets, couple records, coverage splits and
  dependency-level fractions.
- ``benchmarks/test_bench_scaling.py`` times this class against the indexed
  engine to report the old-vs-new trajectory.
- :meth:`ReferenceTDG.forward_closure` restates the PAV fixpoint of
  :mod:`repro.core.strategy` as a full scan per round with every factor
  source re-derived from the node postings; ``tests/test_closure_oracle.py``
  checks scratch and resumed closures against it.

Do not optimize this module; its only job is to stay slow and right.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.index import (
    DOSSIER_KINDS,
    DOSSIER_THRESHOLD,
    MASKABLE_FACTORS,
)
from repro.core.strategy import ClosureEntry, ForwardClosureResult
from repro.core.tdg import (
    CoupleRecord,
    DependencyLevel,
    PathCoverage,
    TDGNode,
    TransformationDependencyGraph,
    _MAX_DEPTH,
)
from repro.model.account import AuthPath
from repro.model.attacker import AttackerCapability, AttackerProfile
from repro.model.ecosystem import Ecosystem
from repro.model.factors import (
    CredentialFactor,
    PersonalInfoKind,
    Platform,
    factor_satisfied_by_info,
    is_robust_factor,
)


class ReferenceTDG:
    """Seed-semantics TDG: every query is a fresh linear scan."""

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
        self._depth_cache: Optional[Dict[str, int]] = None
        self._pure_full_cache: Optional[Dict[str, int]] = None

    @classmethod
    def from_ecosystem(
        cls, ecosystem: Ecosystem, attacker: AttackerProfile
    ) -> "ReferenceTDG":
        """Build the reference graph from service profiles (node derivation
        is shared with the indexed engine; only the queries differ)."""
        return cls(
            (
                TransformationDependencyGraph.node_from_profile(p)
                for p in ecosystem
            ),
            attacker,
        )

    @property
    def attacker(self) -> AttackerProfile:
        return self._attacker

    @property
    def nodes(self) -> Tuple[TDGNode, ...]:
        return tuple(self._nodes.values())

    def node(self, service: str) -> TDGNode:
        return self._nodes[service]

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Factor provisioning semantics (seed scan implementations)
    # ------------------------------------------------------------------

    def innate_factors(self) -> FrozenSet[CredentialFactor]:
        return self._innate

    def coverage(self, node: TDGNode, path: AuthPath) -> PathCoverage:
        innate: Set[CredentialFactor] = set()
        residual: Set[CredentialFactor] = set()
        unsatisfiable: Set[CredentialFactor] = set()
        for factor in path.factors:
            if factor in self._innate:
                innate.add(factor)
            elif is_robust_factor(factor) or factor is CredentialFactor.PASSWORD:
                unsatisfiable.add(factor)
            elif self._providers_of(factor, path):
                residual.add(factor)
            elif self._combinable(factor, path, self._all_names()):
                residual.add(factor)
            elif factor is CredentialFactor.CUSTOMER_SERVICE and (
                AttackerCapability.SOCIAL_ENGINEERING in self._attacker.capabilities
            ):
                residual.add(factor)
            else:
                unsatisfiable.add(factor)
        return PathCoverage(
            path=path,
            innate=frozenset(innate),
            residual=frozenset(residual),
            unsatisfiable=frozenset(unsatisfiable),
        )

    def provides(
        self, provider: TDGNode, factor: CredentialFactor, path: AuthPath
    ) -> bool:
        if is_robust_factor(factor) or factor is CredentialFactor.PASSWORD:
            return False
        if factor in (CredentialFactor.EMAIL_CODE, CredentialFactor.EMAIL_LINK):
            return (
                PersonalInfoKind.MAILBOX_ACCESS in provider.pia
                and AttackerCapability.EMAIL_CHANNEL_AFTER_COMPROMISE
                in self._attacker.capabilities
            )
        if factor is CredentialFactor.LINKED_ACCOUNT:
            return provider.service in path.linked_providers
        if factor is CredentialFactor.CUSTOMER_SERVICE:
            if (
                AttackerCapability.SOCIAL_ENGINEERING
                not in self._attacker.capabilities
            ):
                return False
            return len(provider.pia & DOSSIER_KINDS) >= DOSSIER_THRESHOLD
        return factor_satisfied_by_info(factor, provider.pia)

    def _providers_of(
        self, factor: CredentialFactor, path: AuthPath
    ) -> Tuple[TDGNode, ...]:
        return tuple(
            node
            for node in self._nodes.values()
            if node.service != path.service and self.provides(node, factor, path)
        )

    def _all_names(self) -> FrozenSet[str]:
        return frozenset(self._nodes)

    def partial_positions(
        self, provider: TDGNode, factor: CredentialFactor
    ) -> FrozenSet[int]:
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
        maskable = MASKABLE_FACTORS.get(factor)
        if maskable is None:
            return False
        _kind, length = maskable
        union: Set[int] = set()
        for name in pool:
            if name == path.service:
                continue
            union |= self.partial_positions(self._nodes[name], factor)
            if len(union) >= length:
                return True
        return False

    def _pool_provides(
        self,
        factor: CredentialFactor,
        path: AuthPath,
        pool: FrozenSet[str],
    ) -> bool:
        for name in pool:
            if name == path.service:
                continue
            if self.provides(self._nodes[name], factor, path):
                return True
        return self._combinable(factor, path, pool)

    # ------------------------------------------------------------------
    # Definitions 1-3: parents and couples (all-pairs scans)
    # ------------------------------------------------------------------

    def full_capacity_parents(self, service: str) -> FrozenSet[str]:
        node = self._nodes[service]
        parents: Set[str] = set()
        for path in node.takeover_paths:
            cover = self.coverage(node, path)
            if cover.is_blocked or not cover.residual:
                continue
            for candidate in self._nodes.values():
                if candidate.service == service:
                    continue
                if all(
                    self.provides(candidate, factor, path)
                    for factor in cover.residual
                ):
                    parents.add(candidate.service)
        return frozenset(parents)

    def half_capacity_parents(self, service: str) -> FrozenSet[str]:
        node = self._nodes[service]
        halves: Set[str] = set()
        for path in node.takeover_paths:
            cover = self.coverage(node, path)
            if cover.is_blocked or not cover.residual:
                continue
            for candidate in self._nodes.values():
                if candidate.service == service:
                    continue
                provided = {
                    factor
                    for factor in cover.residual
                    if self.provides(candidate, factor, path)
                }
                if provided and provided != cover.residual:
                    halves.add(candidate.service)
        return frozenset(halves)

    def couples(self, service: str, max_size: int = 3) -> Tuple[CoupleRecord, ...]:
        node = self._nodes[service]
        records: List[CoupleRecord] = []
        seen: Set[Tuple[FrozenSet[str], AuthPath]] = set()
        for path in node.takeover_paths:
            cover = self.coverage(node, path)
            if cover.is_blocked or not cover.residual:
                continue
            per_factor: Dict[CredentialFactor, Tuple[FrozenSet[str], ...]] = {}
            feasible = True
            for factor in cover.residual:
                options: List[FrozenSet[str]] = [
                    frozenset({p.service})
                    for p in self._providers_of(factor, path)
                ]
                options.extend(self._combining_sets(factor, path))
                if not options:
                    feasible = False
                    break
                per_factor[factor] = tuple(options)
            if not feasible:
                continue
            factors = sorted(per_factor, key=lambda f: f.value)
            for combo in itertools.product(*(per_factor[f] for f in factors)):
                members: FrozenSet[str] = frozenset().union(*combo)
                if len(members) < 2 or len(members) > max_size:
                    continue
                if self._has_redundant_member(members, cover, path):
                    continue
                key = (members, path)
                if key in seen:
                    continue
                seen.add(key)
                records.append(
                    CoupleRecord(providers=members, target=service, path=path)
                )
        return tuple(records)

    def _combining_sets(
        self, factor: CredentialFactor, path: AuthPath, max_size: int = 3
    ) -> List[FrozenSet[str]]:
        maskable = MASKABLE_FACTORS.get(factor)
        if maskable is None:
            return []
        _kind, length = maskable
        holders = [
            (node.service, self.partial_positions(node, factor))
            for node in self._nodes.values()
            if node.service != path.service
            and self.partial_positions(node, factor)
        ]
        results: List[FrozenSet[str]] = []
        for size in (2, 3):
            if size > max_size:
                break
            for combo in itertools.combinations(holders, size):
                union: FrozenSet[int] = frozenset().union(
                    *(positions for _n, positions in combo)
                )
                if len(union) < length:
                    continue
                members = frozenset(name for name, _p in combo)
                if any(
                    len(
                        frozenset().union(
                            *(p for n, p in combo if n != skip)
                        )
                    )
                    >= length
                    for skip, _ in combo
                ):
                    continue
                if any(existing <= members for existing in results):
                    continue
                results.append(members)
        return results

    def _has_redundant_member(
        self,
        members: FrozenSet[str],
        cover: PathCoverage,
        path: AuthPath,
    ) -> bool:
        for member in members:
            rest = members - {member}
            if all(
                self._pool_provides(factor, path, rest)
                for factor in cover.residual
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def strong_edges(self) -> FrozenSet[Tuple[str, str]]:
        edges: Set[Tuple[str, str]] = set()
        for service in self._nodes:
            for parent in self.full_capacity_parents(service):
                edges.add((parent, service))
        return frozenset(edges)

    def weak_edges(self) -> FrozenSet[Tuple[str, str]]:
        edges: Set[Tuple[str, str]] = set()
        for service in self._nodes:
            for record in self.couples(service):
                for provider in record.providers:
                    edges.add((provider, service))
        return frozenset(edges)

    # ------------------------------------------------------------------
    # Dependency levels
    # ------------------------------------------------------------------

    def is_direct(
        self, service: str, platform: Optional[Platform] = None
    ) -> bool:
        node = self._nodes[service]
        return any(
            self.coverage(node, path).is_direct
            for path in node.paths_on(platform)
        )

    def _depths(self) -> Dict[str, int]:
        if self._depth_cache is not None:
            return self._depth_cache
        depths: Dict[str, int] = {}
        for service in self._nodes:
            if self.is_direct(service):
                depths[service] = 0
        for depth in range(1, _MAX_DEPTH + 1):
            pool = frozenset(
                name for name, d in depths.items() if d < depth
            )
            changed = False
            for service, node in self._nodes.items():
                if service in depths:
                    continue
                if self._coverable_by(node, pool):
                    depths[service] = depth
                    changed = True
            if not changed:
                break
        self._depth_cache = depths
        return depths

    def _coverable_by(self, node: TDGNode, pool: FrozenSet[str]) -> bool:
        for path in node.takeover_paths:
            cover = self.coverage(node, path)
            if cover.is_blocked:
                continue
            if all(
                self._pool_provides(factor, path, pool)
                for factor in cover.residual
            ):
                return True
        return False

    def _pure_full_depths(self) -> Dict[str, int]:
        if self._pure_full_cache is not None:
            return self._pure_full_cache
        depths: Dict[str, int] = {}
        for service in self._nodes:
            if self.is_direct(service):
                depths[service] = 0
        parents: Dict[str, FrozenSet[str]] = {
            service: self.full_capacity_parents(service)
            for service in self._nodes
        }
        for depth in range(1, _MAX_DEPTH + 1):
            changed = False
            for service in self._nodes:
                if service in depths:
                    continue
                best = min(
                    (
                        depths[parent]
                        for parent in parents[service]
                        if parent in depths
                    ),
                    default=None,
                )
                if best is not None and best < depth:
                    depths[service] = best + 1
                    changed = True
            if not changed:
                break
        self._pure_full_cache = depths
        return depths

    def dependency_levels(
        self, platform: Platform
    ) -> Dict[str, FrozenSet[DependencyLevel]]:
        pure_full = self._pure_full_depths()
        depths = self._depths()
        joint_pool_1 = frozenset(
            name for name, d in depths.items() if d <= 1
        )
        full_pool = frozenset(depths)
        result: Dict[str, FrozenSet[DependencyLevel]] = {}
        for service, node in self._nodes.items():
            paths = node.paths_on(platform)
            if not paths:
                continue
            levels: Set[DependencyLevel] = set()
            for path in paths:
                cover = self.coverage(node, path)
                if cover.is_blocked:
                    continue
                if cover.is_direct:
                    levels.add(DependencyLevel.DIRECT)
                    continue
                full_parent_depths = [
                    pure_full[p.service]
                    for p in self._path_full_parents(node, path, cover)
                    if p.service in pure_full
                ]
                if any(d == 0 for d in full_parent_depths):
                    levels.add(DependencyLevel.ONE_LAYER)
                elif any(d == 1 for d in full_parent_depths):
                    levels.add(DependencyLevel.TWO_LAYER_FULL)
                elif self._jointly_coverable(node, path, cover, joint_pool_1):
                    levels.add(DependencyLevel.TWO_LAYER_MIXED)
            if not levels:
                if self._platform_reachable(node, paths, full_pool):
                    levels.add(DependencyLevel.TWO_LAYER_MIXED)
                else:
                    levels.add(DependencyLevel.SAFE)
            result[service] = frozenset(levels)
        return result

    def _platform_reachable(
        self,
        node: TDGNode,
        paths: Tuple[AuthPath, ...],
        pool: FrozenSet[str],
    ) -> bool:
        pool = pool - {node.service}
        for path in paths:
            cover = self.coverage(node, path)
            if cover.is_blocked:
                continue
            if all(
                self._pool_provides(factor, path, pool)
                for factor in cover.residual
            ):
                return True
        return False

    def _path_full_parents(
        self, node: TDGNode, path: AuthPath, cover: PathCoverage
    ) -> Tuple[TDGNode, ...]:
        return tuple(
            candidate
            for candidate in self._nodes.values()
            if candidate.service != node.service
            and all(
                self.provides(candidate, factor, path)
                for factor in cover.residual
            )
        )

    def _jointly_coverable(
        self,
        node: TDGNode,
        path: AuthPath,
        cover: PathCoverage,
        pool: FrozenSet[str],
    ) -> bool:
        pool = pool - {node.service}
        return bool(cover.residual) and all(
            self._pool_provides(factor, path, pool)
            for factor in cover.residual
        )

    def level_fractions(
        self, platform: Platform
    ) -> Dict[DependencyLevel, float]:
        levels = self.dependency_levels(platform)
        if not levels:
            raise ValueError(f"no services on {platform}")
        n = len(levels)
        return {
            level: sum(1 for ls in levels.values() if level in ls) / n
            for level in DependencyLevel
        }

    def fringe_nodes(self) -> FrozenSet[str]:
        return frozenset(
            service for service in self._nodes if self.is_direct(service)
        )

    # ------------------------------------------------------------------
    # Forward closure (OAAS -> PAV), the strategy engine's oracle
    # ------------------------------------------------------------------

    def forward_closure(
        self,
        initially_compromised: Iterable[str] = (),
        extra_info: Iterable[PersonalInfoKind] = (),
        email_provider: Optional[str] = None,
    ) -> ForwardClosureResult:
        """The PAV fixpoint of
        :meth:`~repro.core.strategy.StrategyEngine.forward_closure`, every
        round a full scan and every factor source re-derived from the
        node postings (no memo, no index, no resume)."""
        info: Set[PersonalInfoKind] = set(self._attacker.known_info)
        info |= set(extra_info)
        compromised: Dict[str, ClosureEntry] = {}
        for name in initially_compromised:
            node = self._nodes[name]
            compromised[name] = ClosureEntry(
                service=name,
                round=0,
                path=node.takeover_paths[0] if node.takeover_paths else None,
                factor_sources={},
            )
            info |= node.pia
        entries: List[ClosureEntry] = list(compromised.values())
        round_number = 0
        while True:
            round_number += 1
            pre_info = frozenset(info)
            pre_compromised = frozenset(compromised)
            fallen: List[ClosureEntry] = []
            for node in self._nodes.values():
                if node.service in compromised:
                    continue
                takeover = self._closure_takeover(
                    node, pre_info, pre_compromised, email_provider
                )
                if takeover is not None:
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
            for entry in fallen:
                compromised[entry.service] = entry
                entries.append(entry)
                info |= self._nodes[entry.service].pia
        return ForwardClosureResult(
            entries=tuple(entries),
            safe=frozenset(self._nodes) - compromised.keys(),
            final_info=frozenset(info),
        )

    def _closure_takeover(
        self,
        node: TDGNode,
        info: FrozenSet[PersonalInfoKind],
        compromised: FrozenSet[str],
        email_provider: Optional[str],
    ) -> Optional[Tuple[AuthPath, Dict[CredentialFactor, str]]]:
        """The shortest fully sourced path (first wins a tie) with its
        provenance, or ``None``."""
        best: Optional[Tuple[AuthPath, Dict[CredentialFactor, str]]] = None
        for path in node.takeover_paths:
            sources: Dict[CredentialFactor, str] = {}
            for factor in path.factors:
                if factor in self._innate:
                    continue
                source = self._closure_source(
                    factor, path, info, compromised, email_provider
                )
                if source is None:
                    break
                sources[factor] = source
            else:
                if best is None or len(path.factors) < len(best[0].factors):
                    best = (path, sources)
        return best

    def _closure_source(
        self,
        factor: CredentialFactor,
        path: AuthPath,
        info: FrozenSet[PersonalInfoKind],
        compromised: FrozenSet[str],
        email_provider: Optional[str],
    ) -> Optional[str]:
        """Which compromised service supplies ``factor`` to ``path``."""
        capabilities = self._attacker.capabilities
        if factor is CredentialFactor.LINKED_ACCOUNT:
            for provider in sorted(path.linked_providers):
                if provider in compromised:
                    return provider
            return None
        if factor in (CredentialFactor.EMAIL_CODE, CredentialFactor.EMAIL_LINK):
            if AttackerCapability.EMAIL_CHANNEL_AFTER_COMPROMISE not in capabilities:
                return None
            if email_provider is not None:
                return email_provider if email_provider in compromised else None
            if PersonalInfoKind.MAILBOX_ACCESS not in info:
                return None
            return self._first_holder(PersonalInfoKind.MAILBOX_ACCESS, compromised)
        if factor is CredentialFactor.CUSTOMER_SERVICE:
            if AttackerCapability.SOCIAL_ENGINEERING not in capabilities:
                return None
            dossier = [kind for kind in info if kind in DOSSIER_KINDS]
            if len(dossier) < DOSSIER_THRESHOLD:
                return None
            canonical = min(dossier, key=lambda kind: kind.value)
            return self._first_holder(canonical, compromised) or "<dossier>"
        if factor_satisfied_by_info(factor, info):
            for kind in sorted(info, key=lambda kind: kind.value):
                if factor_satisfied_by_info(factor, {kind}):
                    holder = self._first_holder(kind, compromised)
                    if holder is not None:
                        return holder
            return "<attacker-profile>"
        maskable = MASKABLE_FACTORS.get(factor)
        if maskable is None:
            return None
        # Insight 4: greedy cover by the widest masked views, ties by name.
        kind, length = maskable
        views = sorted(
            (
                (name, self._nodes[name].pia_partial.get(kind, frozenset()))
                for name in compromised
                if name != path.service
            ),
            key=lambda view: (-len(view[1]), view[0]),
        )
        covered: Set[int] = set()
        chosen: List[str] = []
        for name, positions in views:
            if positions - covered:
                covered |= positions
                chosen.append(name)
                if len(covered) >= length:
                    return "+".join(sorted(chosen))
        return None

    def _first_holder(
        self, kind: PersonalInfoKind, compromised: FrozenSet[str]
    ) -> Optional[str]:
        """The alphabetically first compromised service exposing ``kind``."""
        return min(
            (name for name in compromised if kind in self._nodes[name].pia),
            default=None,
        )
