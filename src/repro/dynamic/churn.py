"""Seeded mutation streams: the churn workload generator.

A :class:`MutationStream` draws catalog-faithful mutations against the
*current* state of an evolving ecosystem: services launch (synthesized
through :meth:`repro.catalog.builder.CatalogBuilder.synthesize_service`
with the stream's own explicit rng) and shut down, providers add and
retire reset paths, masking rules drift, and countermeasures land on
individual providers.  The stream is stateless with respect to the
ecosystem -- it reads whatever ecosystem it is handed on each draw and
keeps state only in its seeded rng -- so a ``(seed, initial ecosystem)``
pair replays the same mutation sequence bit-for-bit, which is what makes
the churn benchmarks and the differential suite reproducible run-to-run.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import DEFAULT_SPEC, CatalogSpec
from repro.dynamic.events import (
    AddAuthPath,
    AddService,
    ApplyHardening,
    ChangeMasking,
    Mutation,
    RemoveAuthPath,
    RemoveService,
)
from repro.model.account import AuthPath, AuthPurpose, MaskSpec
from repro.model.ecosystem import Ecosystem
from repro.model.factors import CredentialFactor as CF
from repro.model.factors import PersonalInfoKind as PI
from repro.model.factors import Platform

#: Masking rules churn draws from -- the catalog's deliberately
#: inconsistent pools plus the two extremes.
_MASK_POOL: Tuple[MaskSpec, ...] = (
    MaskSpec(reveal_prefix=6, reveal_suffix=4),
    MaskSpec(reveal_prefix=4, reveal_suffix=2),
    MaskSpec(reveal_middle=(6, 14)),
    MaskSpec(reveal_prefix=10),
    MaskSpec(reveal_suffix=6),
    MaskSpec(reveal_suffix=4),
    MaskSpec(reveal_middle=(4, 10)),
    MaskSpec.hidden(),
    MaskSpec.full(),
)

_MASKABLE_KINDS: Tuple[PI, ...] = (PI.CITIZEN_ID, PI.BANKCARD_NUMBER)

#: Extra knowledge factors for synthesized info-path resets.
_INFO_FACTORS: Tuple[CF, ...] = (
    CF.CITIZEN_ID,
    CF.REAL_NAME,
    CF.BANKCARD_NUMBER,
    CF.SECURITY_QUESTION,
    CF.ADDRESS,
)


class MutationStream:
    """Deterministic generator of feasible mutations for one workload."""

    def __init__(
        self,
        seed: int = 0,
        spec: CatalogSpec = DEFAULT_SPEC,
        prefix: str = "churn",
        min_services: int = 5,
    ) -> None:
        self._rng = random.Random(seed)
        self._builder = CatalogBuilder(spec, seed=seed)
        self._spec = spec
        self._prefix = prefix
        self._min_services = min_services
        self._counter = 0

    def next_mutation(self, ecosystem: Ecosystem) -> Mutation:
        """Draw one mutation that is feasible against ``ecosystem``.

        Kinds that turn out infeasible in the current state (e.g. no
        service exposes a maskable kind) fall through to the next kind;
        ``AddService`` is always feasible, so the draw always succeeds.
        """
        roll = self._rng.random()
        order = (
            self._change_masking
            if roll < 0.25
            else self._add_auth_path
            if roll < 0.45
            else self._remove_auth_path
            if roll < 0.60
            else self._apply_hardening
            if roll < 0.75
            else self._remove_service
            if roll < 0.85
            else self._add_service
        )
        chain = [
            order,
            self._change_masking,
            self._add_auth_path,
            self._remove_auth_path,
            self._apply_hardening,
            self._add_service,
        ]
        for builder in chain:
            mutation = builder(ecosystem)
            if mutation is not None:
                return mutation
        raise AssertionError("AddService is always feasible")  # pragma: no cover

    def take(self, ecosystem: Ecosystem, count: int) -> List[Mutation]:
        """Draw ``count`` mutations, applying each to a scratch copy so the
        sequence is self-consistent without touching ``ecosystem``."""
        mutations: List[Mutation] = []
        current = ecosystem
        for _ in range(count):
            mutation = self.next_mutation(current)
            current, _delta = current.apply(mutation)
            mutations.append(mutation)
        return mutations

    # ------------------------------------------------------------------
    # Mutation builders (None means infeasible right now)
    # ------------------------------------------------------------------

    def _change_masking(self, ecosystem: Ecosystem) -> Optional[Mutation]:
        candidates = []
        for profile in ecosystem:
            for platform in sorted(profile.platforms, key=lambda p: p.value):
                for kind in _MASKABLE_KINDS:
                    if kind in profile.info_on(platform):
                        candidates.append((profile.name, platform, kind))
        if not candidates:
            return None
        name, platform, kind = self._rng.choice(candidates)
        spec = self._rng.choice(_MASK_POOL)
        return ChangeMasking(
            service=name, platform=platform, kind=kind, spec=spec
        )

    def _add_auth_path(self, ecosystem: Ecosystem) -> Optional[Mutation]:
        profile = ecosystem.service(self._rng.choice(ecosystem.service_names))
        platforms = tuple(sorted(profile.platforms, key=lambda p: p.value))
        platform = self._rng.choice(platforms) if platforms else Platform.WEB
        variant = self._rng.random()
        if variant < 0.4:
            factors = frozenset({CF.CELLPHONE_NUMBER, CF.SMS_CODE})
        elif variant < 0.8:
            extras = self._rng.sample(_INFO_FACTORS, 1 + (variant < 0.6))
            factors = frozenset(
                {CF.CELLPHONE_NUMBER, CF.SMS_CODE, *extras}
            )
        else:
            factors = frozenset({CF.EMAIL_ADDRESS, CF.EMAIL_CODE})
        path = AuthPath(
            service=profile.name,
            platform=platform,
            purpose=AuthPurpose.PASSWORD_RESET,
            factors=factors,
        )
        if path in profile.auth_paths:
            return None
        return AddAuthPath(service=profile.name, path=path)

    def _remove_auth_path(self, ecosystem: Ecosystem) -> Optional[Mutation]:
        candidates = [p for p in ecosystem if len(p.auth_paths) >= 2]
        if not candidates:
            return None
        profile = self._rng.choice(candidates)
        path = self._rng.choice(profile.auth_paths)
        return RemoveAuthPath(service=profile.name, path=path)

    def _apply_hardening(self, ecosystem: Ecosystem) -> Optional[Mutation]:
        from repro.defense.builtin_auth import BuiltinAuthUpgrade
        from repro.defense.hardening import EmailHardening, SymmetryRepair
        from repro.defense.masking_policy import UnifiedMaskingPolicy

        transform = self._rng.choice(
            (
                EmailHardening(),
                SymmetryRepair(),
                UnifiedMaskingPolicy(),
                BuiltinAuthUpgrade(),
            )
        )
        targets = transform.targets(ecosystem)
        if not targets:
            return None
        count = min(len(targets), 1 + (self._rng.random() < 0.3))
        picked = tuple(self._rng.sample(targets, count))
        return ApplyHardening(transform=transform, services=picked)

    def _remove_service(self, ecosystem: Ecosystem) -> Optional[Mutation]:
        if len(ecosystem) <= self._min_services:
            return None
        return RemoveService(
            service=self._rng.choice(ecosystem.service_names)
        )

    def _add_service(self, ecosystem: Ecosystem) -> Mutation:
        domains = tuple(self._spec.domains)
        domain = self._rng.choice(domains)
        self._counter += 1
        name = f"{self._prefix}_{domain.name}_{self._counter:04d}"
        while ecosystem.has_service(name):  # pragma: no cover - defensive
            self._counter += 1
            name = f"{self._prefix}_{domain.name}_{self._counter:04d}"
        profile = self._builder.synthesize_service(
            self._counter, domain, self._rng, name=name
        )
        return AddService(profile=profile)


def measure_serve_comparison(
    ecosystem: Ecosystem,
    samples: int,
    stream_seed: int = 2021,
    platform: Platform = Platform.WEB,
) -> Tuple[List[float], List[float]]:
    """Twin-session serve measurement shared by the perf-smoke gate and
    the churn benchmark's serve tier.

    Two :class:`~repro.dynamic.session.DynamicAnalysisSession` instances
    are fed the same mutation stream.  After each mutation the *baseline*
    session drops its level engine before the timed query -- exactly the
    pre-engine serving cost (global depth fixpoints plus a full
    reclassification over whatever per-node memos survived the delta) --
    while the other serves through its delta-maintained engine.  Returns
    ``(incremental_seconds, recompute_seconds)`` per sample; callers pick
    their own aggregate and threshold.
    """
    from repro.dynamic.session import DynamicAnalysisSession
    from repro.obs import monotonic

    session = DynamicAnalysisSession(ecosystem)
    session.level_fractions(platform)
    baseline = DynamicAnalysisSession(ecosystem)
    baseline.level_fractions(platform)
    stream = MutationStream(seed=stream_seed)
    incremental_seconds: List[float] = []
    recompute_seconds: List[float] = []
    for _ in range(samples):
        mutation = stream.next_mutation(session.ecosystem)
        session.mutate(mutation)
        baseline.mutate(mutation)
        baseline_graph = baseline.graph()
        baseline_graph.reset_levels_engine()
        start = monotonic()
        baseline_graph.level_fractions(platform)
        recompute_seconds.append(monotonic() - start)
        start = monotonic()
        session.level_fractions(platform)
        incremental_seconds.append(monotonic() - start)
    return incremental_seconds, recompute_seconds
