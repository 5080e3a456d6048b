"""The what-if defense-rollout planner.

Section VII evaluates each countermeasure as an all-at-once switch.  Real
deployments stage: email hardening lands one provider at a time, symmetry
repair ships domain by domain.  The planner replays such a staged
deployment as a mutation stream through an
:class:`~repro.api.AnalysisService` facade and records the
measurement payload after every step -- dependency-level fractions per
platform, strong/weak edge counts, fringe size -- so the defense layer can
read the *trajectory* of the attack surface, not just its endpoints (e.g.
"after hardening which provider does the one-layer fraction actually
drop?").  Each step is absorbed incrementally; a ten-step rollout costs
ten deltas plus re-aggregation, not ten pipeline rebuilds.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.tdg import DependencyLevel
from repro.dynamic.events import ApplyHardening, Mutation
from repro.model.attacker import AttackerProfile
from repro.model.ecosystem import Ecosystem
from repro.model.factors import Platform


@dataclasses.dataclass(frozen=True)
class RolloutStep:
    """One deployment wave: a label plus the mutations shipped together."""

    label: str
    mutations: Tuple[Mutation, ...]

    def to_dict(self) -> Dict[str, object]:
        """Wire-ready plan record: the label plus each mutation's
        canonical description (mutations themselves can carry full
        service profiles, which describe -- not serialize -- on the wire)."""
        return {
            "label": self.label,
            "mutations": [m.describe() for m in self.mutations],
        }


@dataclasses.dataclass(frozen=True)
class TrajectoryPoint:
    """The measured attack surface after one rollout step."""

    step: str
    services: int
    mutated_services: Tuple[str, ...]
    level_fractions: Mapping[Platform, Mapping[DependencyLevel, float]]
    strong_edges: int
    fringe: int
    #: ``None`` when the planner skipped the (output-bound) weak-edge count.
    weak_edges: Optional[int] = None

    def fraction(self, platform: Platform, level: DependencyLevel) -> float:
        return self.level_fractions[platform][level]

    def to_dict(self) -> Dict[str, object]:
        """Wire-ready document (enums as value strings)."""
        from repro.utils.serialization import level_map_to_dict

        return {
            "step": self.step,
            "services": self.services,
            "mutated_services": list(self.mutated_services),
            "level_fractions": level_map_to_dict(self.level_fractions),
            "strong_edges": self.strong_edges,
            "fringe": self.fringe,
            "weak_edges": self.weak_edges,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "TrajectoryPoint":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        from repro.utils.serialization import level_map_from_dict

        return cls(
            step=document["step"],
            services=document["services"],
            mutated_services=tuple(document["mutated_services"]),
            level_fractions=level_map_from_dict(document["level_fractions"]),
            strong_edges=document["strong_edges"],
            fringe=document["fringe"],
            weak_edges=document.get("weak_edges"),
        )


@dataclasses.dataclass(frozen=True)
class RolloutTrajectory:
    """The per-step trajectory of one replayed rollout plan."""

    attacker: AttackerProfile
    points: Tuple[TrajectoryPoint, ...]

    @property
    def baseline(self) -> TrajectoryPoint:
        return self.points[0]

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]

    def series(
        self, platform: Platform, level: DependencyLevel
    ) -> Tuple[float, ...]:
        """One level's fraction across the whole rollout."""
        return tuple(p.fraction(platform, level) for p in self.points)

    def to_dict(self) -> Dict[str, object]:
        """Wire-ready document (attacker profile + per-step points)."""
        from repro.utils.serialization import attacker_profile_to_dict

        return {
            "attacker": attacker_profile_to_dict(self.attacker),
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "RolloutTrajectory":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        from repro.utils.serialization import attacker_profile_from_dict

        return cls(
            attacker=attacker_profile_from_dict(document["attacker"]),
            points=tuple(
                TrajectoryPoint.from_dict(point)
                for point in document["points"]
            ),
        )

    def rows(self) -> List[Tuple[str, ...]]:
        """Bench/table-friendly rows (step, services touched, web direct /
        safe, strong edges, weak edges)."""
        rows: List[Tuple[str, ...]] = []
        for point in self.points:
            rows.append(
                (
                    point.step,
                    str(len(point.mutated_services)),
                    f"{100 * point.fraction(Platform.WEB, DependencyLevel.DIRECT):.1f}%",
                    f"{100 * point.fraction(Platform.WEB, DependencyLevel.SAFE):.1f}%",
                    str(point.strong_edges),
                    "-" if point.weak_edges is None else str(point.weak_edges),
                )
            )
        return rows


def replay_plan(
    ecosystem: Ecosystem,
    steps: Iterable[RolloutStep],
    attacker: Optional[AttackerProfile] = None,
    platforms: Tuple[Platform, ...] = (Platform.WEB, Platform.MOBILE),
    include_weak: bool = False,
) -> RolloutTrajectory:
    """The rollout *engine*: replay ``steps`` over a fresh facade.

    Point 0 is the baseline.  Each wave's mutations route through
    :meth:`~repro.api.AnalysisService.apply` (delta splices on the live
    indexes), and each trajectory point is one planned query batch -- the
    level report and the edge summary share the engine flush, every
    point lands in the facade's version-keyed result cache under its own
    version, and per-step weak-edge counts (``include_weak=True``)
    re-derive only the stream segments each delta dirtied.  This is the
    one place the replay loop lives; the
    :class:`~repro.api.AnalysisService` facade calls it for
    :class:`~repro.api.RolloutQuery`.
    """
    from repro.api import AnalysisService, EdgeSummaryQuery, LevelReportQuery

    profile = attacker if attacker is not None else AttackerProfile.baseline()
    service = AnalysisService(ecosystem, attacker=profile)

    def measure(label: str, mutated: Tuple[str, ...]) -> TrajectoryPoint:
        report, edges = service.execute_batch(
            [
                LevelReportQuery(platforms=platforms),
                EdgeSummaryQuery(include_weak=include_weak),
            ]
        )
        return TrajectoryPoint(
            step=label,
            services=len(service),
            mutated_services=mutated,
            level_fractions=report.fractions,
            strong_edges=edges.strong_edges,
            fringe=edges.fringe,
            weak_edges=edges.weak_edges,
        )

    points = [measure("baseline", ())]
    for step in steps:
        touched: List[str] = []
        for mutation in step.mutations:
            receipt = service.apply(mutation)
            touched.extend(receipt.delta.touched_services)
        points.append(measure(step.label, tuple(touched)))
    return RolloutTrajectory(attacker=profile, points=tuple(points))


# ----------------------------------------------------------------------
# Plan builders
# ----------------------------------------------------------------------


def per_service_rollout(
    transform: object,
    ecosystem: Ecosystem,
    prefix: Optional[str] = None,
) -> Tuple[RolloutStep, ...]:
    """One step per service the transform actually modifies.

    ``transform`` is any defense exposing ``targets(ecosystem)`` and
    ``apply_to_profile`` (all four Section VII countermeasures do).
    """
    prefix = prefix if prefix is not None else type(transform).__name__
    return tuple(
        RolloutStep(
            label=f"{prefix}:{name}",
            mutations=(
                ApplyHardening(transform=transform, services=(name,)),
            ),
        )
        for name in transform.targets(ecosystem)
    )


def per_domain_rollout(
    transform: object,
    ecosystem: Ecosystem,
    prefix: Optional[str] = None,
) -> Tuple[RolloutStep, ...]:
    """One step per service *domain*, shipping every target in the domain."""
    prefix = prefix if prefix is not None else type(transform).__name__
    by_domain: Dict[str, List[str]] = {}
    for name in transform.targets(ecosystem):
        by_domain.setdefault(ecosystem.service(name).domain, []).append(name)
    return tuple(
        RolloutStep(
            label=f"{prefix}:{domain}",
            mutations=(
                ApplyHardening(transform=transform, services=tuple(names)),
            ),
        )
        for domain, names in by_domain.items()
    )


def email_hardening_rollout(
    ecosystem: Ecosystem, hardening: Optional[object] = None
) -> Tuple[RolloutStep, ...]:
    """The paper's email countermeasure, one provider at a time."""
    from repro.defense.hardening import EmailHardening

    transform = hardening if hardening is not None else EmailHardening()
    return per_service_rollout(transform, ecosystem, prefix="email")


def symmetry_repair_rollout(
    ecosystem: Ecosystem, repair: Optional[object] = None
) -> Tuple[RolloutStep, ...]:
    """The paper's asymmetry countermeasure, repaired domain by domain."""
    from repro.defense.hardening import SymmetryRepair

    transform = repair if repair is not None else SymmetryRepair()
    return per_domain_rollout(transform, ecosystem, prefix="symmetry")
