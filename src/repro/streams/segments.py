"""Segmented, delta-maintained couple/weak-edge streams.

One **segment** is one service's contribution to a record stream, in the
engine's canonical enumeration order: for the ``"couples"`` kind, the
service's Couple File records (Definition 3); for ``"weak_edges"``, its
distinct ``(provider, service)`` weak-directivity edges in discovery
order.  The full stream is the concatenation of segments in graph
insertion order -- exactly what the pre-segment generators produced --
so every consumer (cursor pages, ``weak_edges()``, the differential
suites) sees an unchanged sequence.

What changes is the cost model under mutations:

- **Segments are lazy and survive deltas.**  A segment buffers only the
  records a consumer has actually drained (a page into a 20k-record
  service pulls a page, not the service); the buffer and its generator
  are memoized and *kept* when mutations land elsewhere.  A mutation
  dirties only the segments of services inside its reach -- touched
  services, demanders of factors whose provider postings moved, and
  consumers of changed linked-account names: the same reverse-dependency
  cone
  :meth:`~repro.core.tdg.TransformationDependencyGraph.invalidate_after_delta`
  walks for the per-service couple memos, which the dynamic differential
  suite has locked as sound since the incremental engine landed.  A
  *clean* segment's generator may safely resume after a delta: cone
  soundness means none of its inputs (its service's coverage splits, its
  signatures' member postings) moved.  Dirt accumulates lazily
  (:meth:`RecordStreamEngine.note_delta`) and is flushed on the next
  read, so a mutation burst costs one splice.
- **Dirty segments re-derive from the per-signature postings.**  Segment
  recomputation drives the graph's memoized signature member sets
  (shared by every service on the same residual-factor signature), so a
  post-mutation page touches O(dirty segments + affected signatures)
  work instead of re-enumerating every signature from service zero.
- **Cursors carry a segment watermark.**  A page's ``next_cursor`` is a
  :class:`StreamCursor` token ``"{ordinal}:{offset}"``: every segment
  with a smaller service ordinal is fully drained, ``offset`` records of
  the watermark segment are consumed.  Ordinals are monotone across
  mutations (:meth:`~repro.core.index.EcosystemIndex.ordinal_of`), so a
  consumer interrupted by a mutation resumes exactly where it stopped:
  drained segments are never re-emitted or re-enumerated, segments still
  ahead are served in their *current* (post-mutation) state, and only a
  mutation that rewrites the partially-drained segment itself can move
  records under the cursor.

Memory: segments persist for whatever a consumer has actually drained
(that is the warm-serving contract), bounded by a per-store record
budget (:data:`MAX_BUFFERED_RECORDS`, least-recently-read segments
evicted first), and are dropped when their service leaves the cone of a
delta or the graph.  Weak-edge segments hold only distinct edges;
couple segments hold the records a paging client was going to receive
anyway.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.model.factors import CredentialFactor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import EcosystemIndex
    from repro.core.tdg import TransformationDependencyGraph

__all__ = ["RecordStreamEngine", "StreamCursor"]

#: The stream kinds the engine maintains segments for.
STREAM_KINDS = ("couples", "weak_edges")

#: Soft bound on buffered records per (kind, max_size) store.  The
#: Couple File is the pipeline's output bound (~200k records at 201
#: services); segments beyond this budget evict least-recently-read
#: first, so an output-bound full scan cannot grow the memo without
#: limit while the serving window (the pages consumers actually resume
#: into) stays memoized.  Eviction never affects correctness -- a
#: re-read segment re-derives from the same per-signature postings.
MAX_BUFFERED_RECORDS = 200_000


@dataclasses.dataclass(frozen=True)
class StreamCursor:
    """A segment watermark: where in the stream a consumer stands.

    ``ordinal`` names the segment being drained (the service's monotone
    insertion ordinal); ``offset`` counts records already consumed within
    it.  Every segment with a smaller ordinal is fully drained.  Tokens
    serialize as ``"{ordinal}:{offset}"`` -- the string the API layer
    hands out as ``next_cursor`` and accepts back on any later session
    version.
    """

    ordinal: int
    offset: int

    def token(self) -> str:
        return f"{self.ordinal}:{self.offset}"

    @classmethod
    def parse(cls, token: str) -> "StreamCursor":
        """Inverse of :meth:`token`; raises ``ValueError`` on garbage."""
        head, sep, tail = token.partition(":")
        if not sep:
            raise ValueError(f"malformed stream cursor {token!r}")
        try:
            ordinal, offset = int(head), int(tail)
        except ValueError:
            raise ValueError(f"malformed stream cursor {token!r}") from None
        if ordinal < 0 or offset < 0:
            raise ValueError(f"negative stream cursor {token!r}")
        return cls(ordinal=ordinal, offset=offset)


class _Segment:
    """One service's lazily-buffered record segment."""

    __slots__ = ("items", "iterator", "exhausted")

    def __init__(self, iterator: Iterator[Any]) -> None:
        self.items: List[Any] = []
        self.iterator = iterator
        self.exhausted = False

    def extend_to(self, count: int) -> None:
        """Pull records until ``count`` are buffered or the segment ends."""
        while not self.exhausted and len(self.items) < count:
            try:
                self.items.append(next(self.iterator))
            except StopIteration:
                self.exhausted = True


class RecordStreamEngine:
    """Delta-maintained record segments for one graph's streams.

    Built lazily by
    :meth:`~repro.core.tdg.TransformationDependencyGraph.streams_engine`;
    graphs that never stream never pay for it.  Deltas arrive through
    :meth:`note_delta` (routed by the graph's ``invalidate_after_delta``,
    exactly like the level engine's) and are absorbed lazily: the next
    read resolves the accumulated scope against the *current*
    reverse-dependency postings and drops only the dirty segments.
    """

    def __init__(self, graph: "TransformationDependencyGraph") -> None:
        self._graph = graph
        #: (kind, max_size) -> service -> lazily-buffered segment, in
        #: least-recently-read-first order (the eviction order).
        self._segments: Dict[
            Tuple[str, int], "OrderedDict[str, _Segment]"
        ] = {}
        # Pending (unflushed) delta scope, in the level engine's shape.
        self._pending_touched: Set[str] = set()
        self._pending_factors: Set[CredentialFactor] = set()
        self._pending_names: Set[str] = set()
        # Observability: segments started vs served from memo vs dropped
        # by deltas -- what the perf tests pin the splice contract on.
        # Registry children on the graph's shared handle; ``stats()`` is
        # the thin view over them.
        obs = graph.instrumentation()
        label = graph.instrumentation_label()

        def _counter(name: str, help_: str):
            return obs.counter(
                f"repro_stream_segments_{name}_total",
                help_,
                labels=("attacker",),
            ).labels(attacker=label)

        self._computed = _counter(
            "computed", "Stream segments freshly started (generator built)."
        )
        self._reused = _counter(
            "reused", "Stream segment reads served from the memo."
        )
        self._invalidated = _counter(
            "invalidated", "Stream segments dropped by a delta's dirty cone."
        )

    # ------------------------------------------------------------------
    # Delta intake (lazy: reads flush)
    # ------------------------------------------------------------------

    def note_delta(
        self,
        touched_services: FrozenSet[str],
        affected_factors: FrozenSet[CredentialFactor],
        combining_factors: FrozenSet[CredentialFactor],
        changed_names: FrozenSet[str],
    ) -> None:
        """Record one delta's scope; the next read absorbs the union."""
        self._pending_touched |= touched_services
        self._pending_factors |= affected_factors | combining_factors
        self._pending_names |= changed_names

    def _flush(self) -> None:
        """Drop exactly the segments the accumulated deltas can reach.

        A segment depends on its service's own coverage splits (touched
        services), the member-set postings of every residual signature
        its paths demand (demanders of affected factors, which also
        covers combining/masked-view changes), and -- for linked-account
        paths -- the node-set membership of accepted providers (linked
        consumers of changed names).  That is the same cone the graph
        pops its per-service couple memos along, resolved against the
        post-delta postings.
        """
        if not (
            self._pending_touched
            or self._pending_factors
            or self._pending_names
        ):
            return
        touched = self._pending_touched
        factors = self._pending_factors
        names = self._pending_names
        self._pending_touched = set()
        self._pending_factors = set()
        self._pending_names = set()
        if not self._segments:
            return
        eco = self._graph.ecosystem_index()
        cone_mask = 0
        for factor in factors:
            cone_mask |= eco.demanders_mask(factor)
        for name in names:
            cone_mask |= eco.linked_consumers_mask(name)
        dirty: Set[str] = set(touched) | eco.decode_mask(cone_mask)
        dropped = 0
        for store in self._segments.values():
            for service in dirty:
                if store.pop(service, None) is not None:
                    dropped += 1
        if dropped:
            self._invalidated.inc(dropped)

    # ------------------------------------------------------------------
    # Segment derivation
    # ------------------------------------------------------------------

    def _segment(self, kind: str, max_size: int, service: str) -> _Segment:
        """One service's segment, from the memo or freshly started.

        A fresh segment's generator drives the graph's per-signature
        member-set postings (and replays its per-service Couple File
        memo when warm), so a re-derived segment costs its own
        signatures, never the graph's -- and only for as many records as
        consumers actually pull.
        """
        store = self._segments.setdefault((kind, max_size), OrderedDict())
        segment = store.get(service)
        if segment is not None:
            self._reused.inc()
            store.move_to_end(service)
            return segment
        self._computed.inc()
        if kind == "couples":
            iterator = self._graph._service_couple_records(service, max_size)
        else:
            iterator = self._weak_iter(max_size, service)
        segment = _Segment(iterator)
        self._trim(store)
        store[service] = segment
        return segment

    @staticmethod
    def _trim(store: "OrderedDict[str, _Segment]") -> None:
        """Evict least-recently-read segments past the record budget.

        Called before admitting a new segment, so an output-bound full
        scan holds a sliding window instead of the whole stream.  Live
        iterators keep their own segment references, so eviction only
        drops the memo slot -- never records mid-walk.
        """
        buffered = sum(len(segment.items) for segment in store.values())
        while buffered > MAX_BUFFERED_RECORDS and len(store) > 1:
            _service, evicted = store.popitem(last=False)
            buffered -= len(evicted.items)

    def _weak_iter(
        self, max_size: int, service: str
    ) -> Iterator[Tuple[str, str]]:
        """Distinct weak edges of one service, in discovery order.

        Enumerates the couple records transiently (replaying the graph's
        per-service memo when warm), so weak-only consumers never buy
        couple-record storage.
        """
        yielded: Set[str] = set()
        for record in self._graph._service_couple_records(service, max_size):
            # providers is a frozenset; sort so discovery order is a pure
            # function of the record sequence, not the process hash seed
            # (the CLI's differential suite pins these bytes cross-process).
            for provider in sorted(record.providers):
                if provider not in yielded:
                    yielded.add(provider)
                    yield (provider, service)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    def iter_records(self, kind: str, max_size: int = 3) -> Iterator[Any]:
        """The full stream, segment by segment in graph order.

        Backs ``iter_couples`` / ``iter_weak_edges``: identical sequence
        to the pre-segment generators, but segments consumed once are
        memoized, so a repeat scan after a mutation re-derives only the
        dirty ones.
        """
        self._flush()
        store = self._segments.setdefault((kind, max_size), OrderedDict())
        for name in self._graph.ecosystem_index().names:
            segment = self._segment(kind, max_size, name)
            position = 0
            while True:
                segment.extend_to(position + 1)
                if position >= len(segment.items):
                    break
                yield segment.items[position]
                position += 1
            # Drained segments count against the record budget too, not
            # just freshly-admitted ones: an output-bound full scan
            # keeps a sliding window, never the whole stream.
            self._trim(store)

    def page(
        self,
        kind: str,
        max_size: int,
        cursor: Union[int, str, StreamCursor],
        page_size: int,
    ) -> Tuple[Tuple[Any, ...], Optional[str]]:
        """One page of the stream plus the watermark of the next.

        ``cursor`` is either a flat integer offset (``0`` = start; legacy
        spelling, counted over the current version's stream) or a
        watermark token from a previous page's ``next_cursor``.  Tokens
        are the stable form: they skip straight to the watermark segment
        -- never re-walking drained ones -- and stay valid across
        mutations.  The returned ``next_cursor`` is always a token, or
        ``None`` when the stream is exhausted.
        """
        self._flush()
        eco = self._graph.ecosystem_index()
        if isinstance(cursor, str):
            cursor = StreamCursor.parse(cursor)
        if isinstance(cursor, StreamCursor):
            watermark, start_offset, skip = cursor.ordinal, cursor.offset, 0
        else:
            watermark, start_offset, skip = -1, 0, int(cursor)
        records: List[Any] = []
        for name in eco.names:
            ordinal = eco.ordinal_of(name)
            if ordinal < watermark:
                continue
            segment = self._segment(kind, max_size, name)
            begin = start_offset if ordinal == watermark else 0
            if skip:
                segment.extend_to(begin + skip + 1)
                if len(segment.items) <= begin + skip:
                    skip -= max(0, len(segment.items) - begin)
                    continue
                begin += skip
                skip = 0
            # +1 lookahead: distinguishes "page ended mid-segment" from
            # "segment drained" without materializing past the page.
            need = page_size - len(records)
            segment.extend_to(begin + need + 1)
            chunk = segment.items[begin : begin + need]
            records.extend(chunk)
            tail = begin + len(chunk)
            if len(records) == page_size:
                if len(segment.items) > tail:
                    next_token = StreamCursor(ordinal, tail).token()
                else:
                    next_token = self._next_nonempty_after(
                        kind, max_size, ordinal, eco
                    )
                self._trim(self._segments[(kind, max_size)])
                return tuple(records), next_token
        store = self._segments.get((kind, max_size))
        if store is not None:
            self._trim(store)
        return tuple(records), None

    def _next_nonempty_after(
        self,
        kind: str,
        max_size: int,
        ordinal: int,
        eco: "EcosystemIndex",
    ) -> Optional[str]:
        """Watermark of the first non-empty segment past ``ordinal``, or
        ``None`` when the page that just filled was also the last record
        (the one-record lookahead that keeps final pages from trailing an
        empty page)."""
        for name in eco.names:
            candidate = eco.ordinal_of(name)
            if candidate <= ordinal:
                continue
            segment = self._segment(kind, max_size, name)
            segment.extend_to(1)
            if segment.items:
                return StreamCursor(candidate, 0).token()
        return None

    # ------------------------------------------------------------------
    # Introspection (differential suites and observability)
    # ------------------------------------------------------------------

    def segment_snapshot(
        self, kind: str, max_size: int = 3
    ) -> Dict[str, Tuple[Any, ...]]:
        """Every materialized segment of one stream, fully drained
        (post-flush) -- what the differential suite compares against a
        scratch rebuild.  A test hook: draining every started segment is
        exactly what serving avoids."""
        self._flush()
        store = self._segments.get((kind, max_size), {})
        snapshot: Dict[str, Tuple[Any, ...]] = {}
        for service, segment in store.items():
            while not segment.exhausted:
                segment.extend_to(len(segment.items) + 1024)
            snapshot[service] = tuple(segment.items)
        return snapshot

    def stats(self) -> Dict[str, int]:
        """Started / memo-served / delta-dropped segment counters (a thin
        view over the ``repro_stream_segments_*_total`` registry
        children)."""
        return {
            "segments": sum(len(s) for s in self._segments.values()),
            "computed": int(self._computed.value),
            "reused": int(self._reused.value),
            "invalidated": int(self._invalidated.value),
        }
