"""Re-measuring the ecosystem under each countermeasure.

The evaluation answers the question Section VII leaves implicit: *how much
attack surface does each proposal actually remove?*  For the baseline,
each single defense, and all defenses combined it reports the
dependency-level fractions and the forward-closure (PAV) size under the
same attacker profile.

Callers run the ablation through the :class:`~repro.api.AnalysisService`
facade with a :class:`~repro.api.DefenseEvalQuery` (or a
:class:`~repro.api.RolloutQuery` for staged deployments), so the
ablation grid shares the facade's version-keyed result cache and the
per-graph closure cache.  The measurement *engine* itself lives in
:func:`measure_outcome`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.core.tdg import DependencyLevel
from repro.defense.builtin_auth import BuiltinAuthUpgrade
from repro.defense.hardening import EmailHardening, SymmetryRepair
from repro.defense.masking_policy import UnifiedMaskingPolicy
from repro.model.ecosystem import Ecosystem
from repro.model.factors import Platform
from repro.utils.serialization import (
    enum_keyed_dict,
    enum_keyed_from_dict,
    level_map_from_dict,
    level_map_to_dict,
)

#: A defense is anything that maps an ecosystem to a hardened ecosystem.
DefenseTransform = Callable[[Ecosystem], Ecosystem]


def standard_defenses() -> Dict[str, DefenseTransform]:
    """The paper's four proposals as named transforms (the registry the
    :class:`~repro.api.AnalysisService` facade preloads)."""
    return {
        "unified_masking": UnifiedMaskingPolicy().apply,
        "email_hardening": EmailHardening().apply,
        "symmetry_repair": SymmetryRepair().apply,
        "builtin_auth": BuiltinAuthUpgrade().apply,
    }


@dataclasses.dataclass(frozen=True)
class DefenseOutcome:
    """Measured attack surface under one defense configuration."""

    label: str
    pav_size: int
    service_count: int
    direct_fraction: Mapping[Platform, float]
    safe_fraction: Mapping[Platform, float]
    dependency: Mapping[Platform, Mapping[DependencyLevel, float]]

    @property
    def pav_fraction(self) -> float:
        """Fraction of services in the potential-victim set."""
        return self.pav_size / max(1, self.service_count)

    def to_dict(self) -> Dict[str, Any]:
        """Wire-ready document (enums as value strings)."""
        return {
            "label": self.label,
            "pav_size": self.pav_size,
            "service_count": self.service_count,
            "direct_fraction": enum_keyed_dict(self.direct_fraction),
            "safe_fraction": enum_keyed_dict(self.safe_fraction),
            "dependency": level_map_to_dict(self.dependency),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "DefenseOutcome":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        return cls(
            label=document["label"],
            pav_size=document["pav_size"],
            service_count=document["service_count"],
            direct_fraction=enum_keyed_from_dict(
                document["direct_fraction"], Platform, float
            ),
            safe_fraction=enum_keyed_from_dict(
                document["safe_fraction"], Platform, float
            ),
            dependency=level_map_from_dict(document["dependency"]),
        )


def measure_outcome(
    label: str, tdg, service_count: int
) -> DefenseOutcome:
    """Measure one configuration's attack surface from its graph.

    The defense-evaluation *engine*: PAV from the (graph-cached) forward
    closure, dependency fractions from one batch call through the level
    engine so both platforms share warm fixpoints.  Used by the
    :class:`~repro.api.AnalysisService` facade for every variant of a
    :class:`~repro.api.DefenseEvalQuery`.
    """
    from repro.core.strategy import StrategyEngine

    closure = StrategyEngine(tdg).forward_closure()
    dependency: Mapping[Platform, Mapping[DependencyLevel, float]] = (
        tdg.levels_report((Platform.WEB, Platform.MOBILE))
    )
    direct: Dict[Platform, float] = {}
    safe: Dict[Platform, float] = {}
    for platform in (Platform.WEB, Platform.MOBILE):
        fractions = dependency[platform]
        direct[platform] = fractions[DependencyLevel.DIRECT]
        safe[platform] = fractions[DependencyLevel.SAFE]
    return DefenseOutcome(
        label=label,
        pav_size=len(closure.compromised),
        service_count=service_count,
        direct_fraction=direct,
        safe_fraction=safe,
        dependency=dependency,
    )


def outcome_rows(
    outcomes: Tuple[DefenseOutcome, ...],
) -> List[Tuple[str, str, str, str, str, str]]:
    """Bench-friendly rows: label, PAV, direct/safe per platform."""
    rows: List[Tuple[str, str, str, str, str, str]] = []
    for outcome in outcomes:
        rows.append(
            (
                outcome.label,
                f"{outcome.pav_size}/{outcome.service_count}",
                f"{100 * outcome.direct_fraction[Platform.WEB]:.1f}%",
                f"{100 * outcome.safe_fraction[Platform.WEB]:.1f}%",
                f"{100 * outcome.direct_fraction[Platform.MOBILE]:.1f}%",
                f"{100 * outcome.safe_fraction[Platform.MOBILE]:.1f}%",
            )
        )
    return rows
