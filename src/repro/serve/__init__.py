"""The multi-tenant serving tier: HTTP front-end over session shards.

This package turns the :class:`~repro.api.AnalysisService` facade into a
running, dependency-free service (stdlib ``http.server`` only):

- :mod:`repro.serve.shard` -- the worker pool.  Every ``(tenant,
  session)`` gets a single-writer event loop that owns its service
  exclusively: queries coalesce into shared-plan batches, mutations
  serialize per shard and apply exactly once, and snapshot migration
  swaps a session onto a fresh worker bit-for-bit.
- :mod:`repro.serve.admission` -- per-tenant concurrency caps with a
  bounded FIFO wait queue; overflow is an immediate 429 +
  ``Retry-After``.
- :mod:`repro.serve.audit` -- every mutation receipt, rejected ones
  included, lands in an NDJSON audit log.
- :mod:`repro.serve.server` -- the HTTP route table, ``/health`` /
  ``/ready`` / ``/metrics`` included.

See ``docs/serving.md`` for the tenancy model, admission semantics, and
the snapshot compatibility contract.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionRejected,
    TenantGate,
)
from repro.serve.audit import AuditLog
from repro.serve.server import AnalysisServer
from repro.serve.shard import ServeConfig, Shard, ShardManager

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AnalysisServer",
    "AuditLog",
    "ServeConfig",
    "Shard",
    "ShardManager",
    "TenantGate",
]
