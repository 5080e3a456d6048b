"""Reproduction of "SMS Goes Nuclear: Fortifying SMS-Based MFA in Online
Account Ecosystem" (DSN 2021).

The library has three layers:

- **Substrates**: a simulated internet of account services
  (:mod:`repro.websim`), a simulated GSM network with passive sniffing and
  active MitM rigs (:mod:`repro.telecom`), and a calibrated 201-service
  ecosystem generator (:mod:`repro.catalog`).
- **ActFort** (:mod:`repro.core`): the paper's analysis framework --
  authentication-process analysis, personal-information collection, the
  Transformation Dependency Graph, and the strategy engine that outputs
  attack paths.
- **Applications**: the Chain Reaction Attack engine and the paper's three
  case studies (:mod:`repro.attack`), the Section IV measurement study
  (:mod:`repro.analysis`), and the Section VII countermeasures
  (:mod:`repro.defense`).

Quickstart::

    from repro import ActFort, CatalogBuilder

    deployed = CatalogBuilder().deploy()
    actfort = ActFort.from_ecosystem(deployed.ecosystem)
    chain = actfort.attack_chain("alipay")
    print(chain.describe())

The Transformation Dependency Graph runs on an inverted-index engine
(:mod:`repro.core.index`): factor->provider and info-kind->holder indexes
are precomputed per ecosystem, and parent/couple/dependency-level queries
are memoized, so paper-scale (201-service) analysis completes in
milliseconds and 1000-service ecosystems stay interactive.  To sweep
several attacker profiles over one ecosystem, share the indexes with the
batch API instead of rebuilding per profile::

    from repro import ActFort, AttackerProfile, build_default_ecosystem

    base = ActFort.from_ecosystem(build_default_ecosystem())
    profiles = [AttackerProfile.baseline(), AttackerProfile.with_se_database()]
    for analyzer in base.batch(profiles):
        print(analyzer.attacker, len(analyzer.potential_victims().compromised))

The seed's brute-force engine is preserved in :mod:`repro.core.reference`
as the differential-testing oracle; ``tests/test_tdg_equivalence.py`` locks
the indexed engine to it bit-for-bit.

Ecosystems also evolve *in place*: :mod:`repro.dynamic` keeps the indexed
engine live under typed mutations (services launching/retiring, auth paths
and masking rules changing, defenses rolling out provider by provider),
updating the inverted indexes per delta instead of rebuilding::

    from repro import AnalysisService, build_default_ecosystem
    from repro.api import RolloutQuery
    from repro.dynamic import email_hardening_rollout

    ecosystem = build_default_ecosystem()
    trajectory = AnalysisService(ecosystem).execute(
        RolloutQuery(steps=tuple(email_hardening_rollout(ecosystem)))
    )

``tests/test_dynamic_equivalence.py`` locks every incremental state to a
from-scratch rebuild, mirroring the indexed engine's discipline -- the
level fixpoints (:mod:`repro.levels`), the couple/weak-edge record
segments (:mod:`repro.streams`), the signature parent-set views, and the
measurement counters all splice under deltas instead of recomputing.

All of it serves through one surface: :mod:`repro.api`'s
:class:`~repro.api.AnalysisService` facade takes typed queries
(level reports, measurement, forward closure, defense ablations, staged
rollouts, cursor-paged couple/weak-edge streams), caches results under a
version key, and routes mutations through the incremental engines::

    from repro import AnalysisService, build_default_ecosystem
    from repro.api import LevelReportQuery, MeasurementQuery

    service = AnalysisService(build_default_ecosystem())
    report, measured = service.execute_batch(
        [LevelReportQuery(), MeasurementQuery()]
    )

``tests/test_api_service.py`` locks every legacy entry point's routed
results against direct engine use, mutations interleaved.

The top-level ``README.md`` is the front door: quickstart, the
documentation suite (``docs/architecture.md``, ``docs/serving.md``,
``docs/benchmarks.md``), the example walkthroughs in ``examples/``, and
the verify/bench/docs-check command map.
"""

from repro.model import (
    AttackerCapability,
    AttackerProfile,
    AuthPath,
    AuthPurpose,
    CredentialFactor,
    Ecosystem,
    Identity,
    IdentityGenerator,
    OnlineAccount,
    PathType,
    PersonalInfoKind,
    Platform,
    ServiceProfile,
)
from repro.core import (
    ActFort,
    AttackChain,
    DependencyLevel,
    StrategyEngine,
    TransformationDependencyGraph,
)
from repro.catalog import CatalogBuilder, DeployedEcosystem, build_default_ecosystem
from repro.websim import Internet
from repro.telecom import ActiveMitM, FourGJammer, GSMNetwork, OsmocomSniffer
from repro.attack import ChainExecutor, SnifferInterception
from repro.analysis import compute_insights
from repro.dynamic import DynamicAnalysisSession
from repro.api import AnalysisService

__version__ = "1.0.0"

__all__ = [
    "ActFort",
    "ActiveMitM",
    "AnalysisService",
    "AttackChain",
    "AttackerCapability",
    "AttackerProfile",
    "AuthPath",
    "AuthPurpose",
    "CatalogBuilder",
    "ChainExecutor",
    "CredentialFactor",
    "DependencyLevel",
    "DeployedEcosystem",
    "DynamicAnalysisSession",
    "Ecosystem",
    "FourGJammer",
    "GSMNetwork",
    "Identity",
    "IdentityGenerator",
    "Internet",
    "OnlineAccount",
    "OsmocomSniffer",
    "PathType",
    "PersonalInfoKind",
    "Platform",
    "ServiceProfile",
    "SnifferInterception",
    "StrategyEngine",
    "TransformationDependencyGraph",
    "build_default_ecosystem",
    "compute_insights",
    "__version__",
]
