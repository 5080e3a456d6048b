"""Session shards: one single-writer worker loop per tenant session.

The engines behind an :class:`~repro.api.AnalysisService` are fast but
not thread-safe -- memoized postings, closure records, and stream
segments are spliced in place.  The shard layer makes that safe to serve
concurrently by giving every ``(tenant, session)`` pair its own worker
thread that owns the service exclusively: all access rides the shard's
inbox queue, so **mutations serialize per shard** while traffic to
different shards runs fully in parallel across the pool.

Read batching: consecutive queued queries are drained into one
``execute_batch`` call, so concurrent readers share one plan (duplicate
keys are deduped there) and the engines' lazy delta flushes are paid
once per batch -- the fan-out happens *inside* the plan instead of
across threads fighting over one graph.

Mutations apply exactly once.  The engines are deterministic and
in-process, so a failed mutation would fail the same way again: its
exception goes straight back to the caller (the HTTP tier maps it to a
status), and the session is left as the failing apply left it.  Every
receipt -- applied, no-op, or rejected -- is recorded in the NDJSON
:class:`~repro.serve.audit.AuditLog`.

Snapshot migration: :meth:`ShardManager.migrate` snapshots the session
*inside* its worker loop (a consistent point between mutations), restores
a fresh service from the document, and atomically swaps the routing
entry to a brand-new worker -- the differential suite pins restored
query results bit-for-bit against pre-migration ones.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import AnalysisService, Query
from repro.api.queries import RolloutQuery
from repro.model.attacker import AttackerProfile
from repro.obs import Instrumentation
from repro.serve.audit import AuditLog
from repro.utils.serialization import attacker_profile_from_dict

__all__ = ["ServeConfig", "Shard", "ShardManager"]

_STOP = object()


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Knobs for the serving tier (one instance per server)."""

    #: Per-tenant admission defaults.
    max_concurrent_per_tenant: int = 8
    max_queue_per_tenant: int = 16
    retry_after_seconds: float = 1.0
    #: NDJSON audit log destination (``None`` = in-memory ring only).
    audit_path: Optional[str] = None
    #: Catalog ceiling for cold session builds over the HTTP surface.
    max_services_per_session: int = 30_000


class _Reply:
    """One-shot result slot a caller blocks on."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def set(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("shard did not reply in time")
        if self._error is not None:
            raise self._error
        return self._value


@dataclasses.dataclass
class _QueryWork:
    queries: Tuple[Query, ...]
    reply: _Reply


@dataclasses.dataclass
class _MutationWork:
    mutation: Any
    document: Dict[str, Any]
    reply: _Reply


@dataclasses.dataclass
class _CallWork:
    fn: Callable[[AnalysisService], Any]
    reply: _Reply


class Shard:
    """One session, one owning worker thread, one inbox."""

    def __init__(
        self,
        shard_id: str,
        tenant: str,
        session_name: str,
        service: AnalysisService,
        config: ServeConfig,
        audit: AuditLog,
        metrics: "_ShardMetrics",
    ) -> None:
        self.shard_id = shard_id
        self.tenant = tenant
        self.session_name = session_name
        self._service = service
        self._config = config
        self._audit = audit
        self._metrics = metrics
        self._inbox: "queue.Queue[Any]" = queue.Queue()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"shard-{tenant}-{session_name}",
            daemon=True,
        )
        self._closed = False
        self._thread.start()

    # -- public surface (any thread) ------------------------------------

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def execute(
        self, queries: Sequence[Query], timeout: Optional[float] = 60.0
    ) -> Tuple[Any, ...]:
        """Run a read-only query batch through the worker loop."""
        for query in queries:
            if isinstance(query, RolloutQuery):
                raise ValueError(
                    "RolloutQuery is not served over the shard surface"
                )
        reply = _Reply()
        self._submit(_QueryWork(queries=tuple(queries), reply=reply))
        return reply.wait(timeout)

    def apply(
        self,
        mutation,
        document: Dict[str, Any],
        timeout: Optional[float] = 60.0,
    ) -> Dict[str, Any]:
        """Apply one mutation once; returns the receipt document or
        re-raises the exception the apply raised."""
        reply = _Reply()
        self._submit(
            _MutationWork(mutation=mutation, document=document, reply=reply)
        )
        return reply.wait(timeout)

    def call(
        self,
        fn: Callable[[AnalysisService], Any],
        timeout: Optional[float] = 60.0,
    ) -> Any:
        """Run an arbitrary read against the service inside the loop."""
        reply = _Reply()
        self._submit(_CallWork(fn=fn, reply=reply))
        return reply.wait(timeout)

    def info(self) -> Dict[str, Any]:
        return self.call(
            lambda service: {
                "session": self.session_name,
                "shard": self.shard_id,
                "version": service.version,
                "services": len(service),
                "attackers": list(service.attackers),
            }
        )

    def close(self, timeout: float = 5.0) -> None:
        if not self._closed:
            self._closed = True
            self._inbox.put(_STOP)
        self._thread.join(timeout)

    # -- worker internals ------------------------------------------------

    def _submit(self, work) -> None:
        if self._closed:
            raise RuntimeError(
                f"shard {self.shard_id} for session "
                f"{self.session_name!r} is closed"
            )
        self._inbox.put(work)
        self._note_depth()

    def _note_depth(self) -> None:
        self._metrics.queue_depth.labels(
            tenant=self.tenant, session=self.session_name
        ).set(self._inbox.qsize())

    def _loop(self) -> None:
        while True:
            work = self._inbox.get()
            self._note_depth()
            if work is _STOP:
                return
            if isinstance(work, _QueryWork):
                batch = [work]
                carry: Any = None
                while True:
                    try:
                        nxt = self._inbox.get_nowait()
                    except queue.Empty:
                        break
                    if isinstance(nxt, _QueryWork):
                        batch.append(nxt)
                    else:
                        carry = nxt
                        break
                self._note_depth()
                self._run_queries(batch)
                if carry is _STOP:
                    return
                if carry is not None:
                    self._run_sequential(carry)
            else:
                self._run_sequential(work)

    def _run_queries(self, batch: List[_QueryWork]) -> None:
        flat: List[Query] = []
        for work in batch:
            flat.extend(work.queries)
        try:
            results = self._service.execute_batch(flat)
        except Exception as exc:
            if len(batch) == 1:
                batch[0].reply.fail(exc)
                return
            # One bad request must not fail the requests coalesced with
            # it: re-run each work on its own so only the offender fails.
            for work in batch:
                self._run_queries([work])
            return
        self._metrics.queries.labels(tenant=self.tenant).inc(len(flat))
        if len(batch) > 1:
            self._metrics.coalesced.labels(tenant=self.tenant).inc(
                len(batch) - 1
            )
        offset = 0
        for work in batch:
            count = len(work.queries)
            work.reply.set(tuple(results[offset:offset + count]))
            offset += count

    def _run_sequential(self, work) -> None:
        if isinstance(work, _CallWork):
            try:
                work.reply.set(work.fn(self._service))
            except Exception as exc:
                work.reply.fail(exc)
            return
        self._apply(work)

    def _apply(self, work: _MutationWork) -> None:
        try:
            receipt = self._service.apply(work.mutation)
        except Exception as exc:
            self._audit.record(
                tenant=self.tenant,
                session=self.session_name,
                outcome="rejected",
                mutation=work.document,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._metrics.mutations.labels(
                tenant=self.tenant, outcome="rejected"
            ).inc()
            work.reply.fail(exc)
            return
        outcome = "noop" if receipt.delta.is_noop else "applied"
        self._audit.record(
            tenant=self.tenant,
            session=self.session_name,
            outcome=outcome,
            mutation=work.document,
            version=receipt.version,
            delta=receipt.delta.describe(),
        )
        self._metrics.mutations.labels(
            tenant=self.tenant, outcome=outcome
        ).inc()
        work.reply.set(
            {
                "outcome": outcome,
                "version": receipt.version,
                "delta": receipt.delta.describe(),
            }
        )


class _ShardMetrics:
    """The shard-layer instruments, created once per manager."""

    def __init__(self, obs: Instrumentation) -> None:
        self.queue_depth = obs.gauge(
            "repro_serve_shard_queue_depth",
            "Work items queued at one session shard.",
            labels=("tenant", "session"),
        )
        self.queries = obs.counter(
            "repro_serve_queries_total",
            "Queries served through the shard pool.",
            labels=("tenant",),
        )
        self.coalesced = obs.counter(
            "repro_serve_query_batches_coalesced_total",
            "Queued query works merged into an earlier batch's plan.",
            labels=("tenant",),
        )
        self.mutations = obs.counter(
            "repro_serve_mutations_total",
            "Mutation receipts, by outcome.",
            labels=("tenant", "outcome"),
        )
        self.shards_live = obs.gauge(
            "repro_serve_shards_live", "Session shards currently routed."
        )
        self.migrations = obs.counter(
            "repro_serve_migrations_total",
            "Snapshot/restore shard migrations completed.",
            labels=("tenant",),
        )


class ShardManager:
    """Routes ``(tenant, session)`` to shards; owns audit and config.

    Creation, migration, and retirement swap routing entries under one
    lock; the per-shard worker loops never block each other.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.instrumentation = (
            instrumentation
            if instrumentation is not None
            else Instrumentation()
        )
        self.audit = AuditLog(path=self.config.audit_path)
        self._metrics = _ShardMetrics(self.instrumentation)
        self._lock = threading.Lock()
        self._shards: Dict[Tuple[str, str], Shard] = {}
        self._shard_counter = 0

    # -- session lifecycle -----------------------------------------------

    def create_session(
        self,
        tenant: str,
        name: str,
        services: Optional[int] = None,
        seed: int = 2021,
        attackers: Optional[Dict[str, Dict[str, Any]]] = None,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Build (cold) or restore (warm) a session and route it.

        Exactly one of ``services`` (a catalog size to cold-build) or
        ``snapshot`` (a snapshot document to warm-start from) must be
        given.  Raises ``ValueError`` on bad arguments and ``KeyError``
        on (tenant, name) collision.
        """
        if (services is None) == (snapshot is None):
            raise ValueError(
                "pass exactly one of 'services' (cold build) or "
                "'snapshot' (warm start)"
            )
        with self._lock:
            if (tenant, name) in self._shards:
                raise KeyError(
                    f"tenant {tenant!r} already has a session {name!r}"
                )
        if snapshot is not None:
            service = AnalysisService.restore(snapshot)
        else:
            service = self._cold_build(services, seed, attackers)
        shard = self._route(tenant, name, service)
        return {
            "tenant": tenant,
            "session": name,
            "shard": shard.shard_id,
            "version": service.version,
            "services": len(service),
            "warm_start": snapshot is not None,
        }

    def _cold_build(
        self,
        services: int,
        seed: int,
        attackers: Optional[Dict[str, Dict[str, Any]]],
    ) -> AnalysisService:
        from repro.catalog import CatalogBuilder
        from repro.catalog.spec import CatalogSpec

        if not 1 <= services <= self.config.max_services_per_session:
            raise ValueError(
                f"services must be in "
                f"[1, {self.config.max_services_per_session}]"
            )
        profiles: Optional[Dict[str, AttackerProfile]] = None
        if attackers is not None:
            profiles = {
                label: attacker_profile_from_dict(entry)
                for label, entry in attackers.items()
            }
        ecosystem = CatalogBuilder(
            CatalogSpec(total_services=services), seed=seed
        ).build_ecosystem()
        return AnalysisService(ecosystem, attackers=profiles)

    def _route(
        self, tenant: str, name: str, service: AnalysisService
    ) -> Shard:
        with self._lock:
            if (tenant, name) in self._shards:
                raise KeyError(
                    f"tenant {tenant!r} already has a session {name!r}"
                )
            self._shard_counter += 1
            shard = Shard(
                shard_id=f"shard-{self._shard_counter}",
                tenant=tenant,
                session_name=name,
                service=service,
                config=self.config,
                audit=self.audit,
                metrics=self._metrics,
            )
            self._shards[(tenant, name)] = shard
            self._metrics.shards_live.set(len(self._shards))
            return shard

    def shard(self, tenant: str, name: str) -> Optional[Shard]:
        with self._lock:
            return self._shards.get((tenant, name))

    def sessions(self, tenant: str) -> List[str]:
        with self._lock:
            return sorted(
                session
                for (owner, session) in self._shards
                if owner == tenant
            )

    def migrate(self, tenant: str, name: str) -> Dict[str, Any]:
        """Snapshot the session on its current shard, restore it on a
        fresh one, and swap routing -- the tenant's next request lands on
        the new worker; other tenants are untouched throughout."""
        shard = self.shard(tenant, name)
        if shard is None:
            raise KeyError(f"no session {name!r} for tenant {tenant!r}")
        document = shard.call(lambda service: service.snapshot())
        restored = AnalysisService.restore(document)
        with self._lock:
            self._shard_counter += 1
            replacement = Shard(
                shard_id=f"shard-{self._shard_counter}",
                tenant=tenant,
                session_name=name,
                service=restored,
                config=self.config,
                audit=self.audit,
                metrics=self._metrics,
            )
            self._shards[(tenant, name)] = replacement
        shard.close()
        self._metrics.migrations.labels(tenant=tenant).inc()
        return {
            "tenant": tenant,
            "session": name,
            "from_shard": shard.shard_id,
            "to_shard": replacement.shard_id,
            "version": restored.version,
            "warm_results": len(document.get("warm_results", ())),
        }

    # -- health -----------------------------------------------------------

    def ready(self) -> bool:
        """All routed shards have live worker threads."""
        with self._lock:
            shards = list(self._shards.values())
        return all(shard.alive for shard in shards)

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            shards = list(self._shards.values())
        return {
            "shards": [
                {
                    "tenant": shard.tenant,
                    "session": shard.session_name,
                    "shard": shard.shard_id,
                    "alive": shard.alive,
                }
                for shard in shards
            ],
        }

    def close(self) -> None:
        with self._lock:
            shards = list(self._shards.values())
            self._shards.clear()
            self._metrics.shards_live.set(0)
        for shard in shards:
            shard.close()
        self.audit.close()

