"""The incremental ecosystem engine: mutations, delta index maintenance,
and the what-if defense-rollout planner.

The paper's measurement (Section IV) and countermeasure analysis
(Section VII) are one-shot: build the ecosystem, run ActFort, read the
dependency levels.  Real account ecosystems churn -- services appear,
auth paths and masking rules change, defenses roll out gradually -- and
serving that as heavy traffic means per-mutation re-analysis must not pay
an O(ecosystem) rebuild.  This package keeps the indexed TDG engine of
:mod:`repro.core` *live* under change:

- :mod:`repro.dynamic.events` -- the typed mutation model
  (:class:`AddService`, :class:`RemoveService`, :class:`AddAuthPath`,
  :class:`RemoveAuthPath`, :class:`ChangeMasking`,
  :class:`ApplyHardening`) and the :class:`EcosystemDelta` record that
  :meth:`repro.model.ecosystem.Ecosystem.apply` produces.
- :mod:`repro.dynamic.incremental` -- the delta maintainer: updates the
  shared :class:`~repro.core.index.EcosystemIndex` and every live
  :class:`~repro.core.index.AttackerIndex` in place (postings splices, not
  rebuilds) and invalidates only the memoized coverage/parent/couple/level
  entries a delta can reach.
- :mod:`repro.dynamic.session` -- :class:`DynamicAnalysisSession`, the
  ``mutate()``/``query()`` serving layer long mutation streams drive.
- :mod:`repro.dynamic.rollout` -- the what-if planner: replay a staged
  hardening deployment (email hardening one provider at a time, symmetry
  repair per domain) and read the per-step dependency-level trajectory.
- :mod:`repro.dynamic.churn` -- seeded mutation streams for benchmarks
  and differential tests.

Mirroring the indexed engine's discipline, ``tests/test_dynamic_equivalence.py``
locks every incremental state against a from-scratch rebuild bit-for-bit.
"""

from repro.dynamic.churn import MutationStream
from repro.dynamic.events import (
    AddAuthPath,
    AddService,
    ApplyHardening,
    ChangeMasking,
    EcosystemDelta,
    Mutation,
    RemoveAuthPath,
    RemoveService,
)
from repro.dynamic.incremental import apply_delta
from repro.dynamic.rollout import (
    replay_plan,
    RolloutStep,
    RolloutTrajectory,
    TrajectoryPoint,
    email_hardening_rollout,
    per_domain_rollout,
    per_service_rollout,
    symmetry_repair_rollout,
)
from repro.dynamic.session import DynamicAnalysisSession

__all__ = [
    "AddAuthPath",
    "AddService",
    "ApplyHardening",
    "ChangeMasking",
    "DynamicAnalysisSession",
    "EcosystemDelta",
    "Mutation",
    "MutationStream",
    "RemoveAuthPath",
    "RemoveService",
    "RolloutStep",
    "RolloutTrajectory",
    "TrajectoryPoint",
    "apply_delta",
    "replay_plan",
    "email_hardening_rollout",
    "per_domain_rollout",
    "per_service_rollout",
    "symmetry_repair_rollout",
]
