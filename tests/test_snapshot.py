"""Session snapshot/restore: the serving tier's migration contract.

A restored session must be indistinguishable from the live one it was
snapshotted from -- bit-for-bit across every wire-codable query kind,
including full pagination streams -- and must stay indistinguishable
after both copies apply the same post-restore mutation.  The golden
fixture (``tests/fixtures/golden_snapshot.json``) pins the on-disk
format: a snapshot written by any past build must keep restoring, and
today's builder must keep producing byte-identical documents for the
same seed, or the format version needs bumping.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    AnalysisService,
    ClosureQuery,
    CoupleFileQuery,
    DefenseEvalQuery,
    DependencyLevelsQuery,
    EdgeSummaryQuery,
    LevelReportQuery,
    MeasurementQuery,
    WeakEdgeQuery,
)
from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.defense import UnifiedMaskingPolicy
from repro.dynamic import (
    ApplyHardening,
    ChangeMasking,
    DynamicAnalysisSession,
    RemoveService,
)
from repro.dynamic.snapshot import SNAPSHOT_FORMAT, restore_session
from repro.model.account import MaskSpec
from repro.model.factors import PersonalInfoKind as PI
from repro.model.factors import Platform as PL

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden_snapshot.json"

#: Catalog tier the golden fixture is generated from (keep in sync with
#: ``tools/make_golden_snapshot.py``).
GOLDEN_SERVICES = 60


def _build_ecosystem(services=120):
    return CatalogBuilder(
        CatalogSpec(total_services=services), seed=2021
    ).build_ecosystem()


def _canonical(document):
    """Snapshot documents compare via canonical JSON: the wire format is
    what must round-trip, not Python object identity."""
    return json.dumps(document, sort_keys=True)


def _workload():
    """One of every wire-codable query kind (pagination covered by
    :func:`_drain`)."""
    return [
        LevelReportQuery(),
        DependencyLevelsQuery(),
        DependencyLevelsQuery(platform=PL.MOBILE),
        ClosureQuery(),
        MeasurementQuery(),
        EdgeSummaryQuery(include_weak=True),
        DefenseEvalQuery(),
    ]


def _drain(service, query_cls, page_size=64):
    """The full pagination stream for one page-query kind."""
    pages = []
    cursor = 0
    while True:
        page = service.execute(
            query_cls(cursor=cursor, page_size=page_size)
        )
        pages.append(page)
        if page.next_cursor is None:
            return pages
        cursor = page.next_cursor


def _assert_identical(live, restored):
    """Every query kind plus both pagination streams agree."""
    workload = _workload()
    assert restored.execute_batch(workload) == live.execute_batch(
        workload
    )
    for query_cls in (CoupleFileQuery, WeakEdgeQuery):
        assert _drain(restored, query_cls) == _drain(live, query_cls)
    assert restored.version == live.version
    assert len(restored) == len(live)


class TestSessionRoundTrip:
    def test_restored_session_matches_live_bit_for_bit(self):
        live = DynamicAnalysisSession(_build_ecosystem())
        document = json.loads(json.dumps(live.snapshot()))

        restored = DynamicAnalysisSession.restore(document)

        assert restored.version == live.version
        assert restored.history_digest == live.history_digest
        assert sorted(restored.attackers) == sorted(live.attackers)
        assert restored.measurement().to_dict() == (
            live.measurement().to_dict()
        )
        assert restored.level_report() == live.level_report()
        assert restored.forward_closure() == live.forward_closure()
        assert restored.strong_edge_count() == live.strong_edge_count()
        # The session count sums parent-mask popcounts; it must equal the
        # materialized edge set's size.
        assert live.strong_edge_count() == len(live.graph().strong_edges())
        assert restored.weak_edge_count() == live.weak_edge_count()
        assert dict(restored.auth_reports) == dict(live.auth_reports)
        assert dict(restored.collection_reports) == dict(
            live.collection_reports
        )

    def test_resnapshot_of_untouched_restore_is_byte_identical(self):
        live = DynamicAnalysisSession(_build_ecosystem(60))
        document = live.snapshot()
        restored = DynamicAnalysisSession.restore(
            json.loads(json.dumps(document))
        )
        assert _canonical(restored.snapshot()) == _canonical(document)

    def test_mutation_after_restore_converges_with_live(self):
        live = DynamicAnalysisSession(_build_ecosystem(60))
        restored = DynamicAnalysisSession.restore(live.snapshot())
        victim = sorted(live.auth_reports)[0]

        for session in (live, restored):
            delta = session.mutate(
                ApplyHardening(transform=UnifiedMaskingPolicy())
            )
            assert not delta.is_noop
            session.mutate(RemoveService(victim))

        assert restored.version == live.version
        assert restored.history_digest == live.history_digest
        assert restored.measurement().to_dict() == (
            live.measurement().to_dict()
        )
        assert restored.level_report() == live.level_report()
        assert restored.forward_closure() == live.forward_closure()
        assert restored.strong_edge_count() == len(
            restored.graph().strong_edges()
        )
        assert _canonical(restored.snapshot()) == _canonical(
            live.snapshot()
        )

    def test_snapshot_rejects_deployed_sessions(self):
        deployed = CatalogBuilder(
            CatalogSpec(total_services=12, victims=1, cells=1), seed=7
        ).deploy()
        session = DynamicAnalysisSession(deployed.ecosystem)
        with pytest.raises(ValueError, match="accounts"):
            session.snapshot()

    def test_restore_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            restore_session({"format": "repro/other@9"})


class TestServiceRoundTrip:
    def test_restored_service_matches_live_across_every_query_kind(self):
        live = AnalysisService(_build_ecosystem())
        live.execute_batch(_workload())

        restored = AnalysisService.restore(
            json.loads(json.dumps(live.snapshot()))
        )

        _assert_identical(live, restored)

    def test_still_identical_after_post_restore_mutation(self):
        live = AnalysisService(_build_ecosystem())
        live.execute_batch(_workload())
        restored = AnalysisService.restore(live.snapshot())
        victim = sorted(live.session.auth_reports)[0]

        mutations = (
            ChangeMasking(
                service=victim,
                platform=PL.WEB,
                kind=PI.EMAIL_ADDRESS,
                spec=MaskSpec(reveal_prefix=1),
            ),
            RemoveService(victim),
        )
        for mutation in mutations:
            live_receipt = live.apply(mutation)
            restored_receipt = restored.apply(mutation)
            assert restored_receipt.version == live_receipt.version
            assert (
                restored_receipt.delta.describe()
                == live_receipt.delta.describe()
            )

        _assert_identical(live, restored)

    def test_warm_results_serve_without_materializing(self):
        live = AnalysisService(_build_ecosystem(60))
        workload = _workload()
        expected = live.execute_batch(workload)

        restored = AnalysisService.restore(live.snapshot())
        assert restored.execute_batch(workload) == expected
        # The whole batch came from carried warm results: the restored
        # session never had to decode reports or rebuild graphs.
        assert restored.session._graphs is None
        assert restored.cache_stats().misses == 0

    def test_snapshot_without_warm_results_is_session_only(self):
        live = AnalysisService(_build_ecosystem(60))
        live.execute_batch(_workload())
        document = live.snapshot(include_warm_results=False)
        assert "warm_results" not in document
        restored = AnalysisService.restore(document)
        _assert_identical(live, restored)


class TestGoldenSnapshot:
    def test_golden_fixture_restores_and_serves(self):
        document = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert document["format"] == SNAPSHOT_FORMAT

        service = AnalysisService.restore(document)
        live = AnalysisService(_build_ecosystem(GOLDEN_SERVICES))
        _assert_identical(live, service)

    def test_todays_builder_reproduces_the_golden_bytes(self):
        """Format drift tripwire: the same seed must keep producing the
        committed document byte-for-byte.  If this fails because the
        snapshot format intentionally changed, bump ``SNAPSHOT_FORMAT``
        and regenerate via ``tools/make_golden_snapshot.py``."""
        session = DynamicAnalysisSession(
            _build_ecosystem(GOLDEN_SERVICES)
        )
        assert _canonical(session.snapshot()) == _canonical(
            json.loads(GOLDEN.read_text(encoding="utf-8"))
        )
