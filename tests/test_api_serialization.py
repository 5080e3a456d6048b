"""Wire-format round-trips for the API result types.

Every result the facade serves must be JSON-serializable: ``to_dict``
output survives ``json.dumps``/``json.loads``, and ``from_dict`` inverts
it exactly (dataclass equality), so a serving layer can ship responses
with no post-processing.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    AnalysisService,
    ClosureQuery,
    ClosureSummary,
    CoupleFileQuery,
    CouplePage,
    DefenseEvalQuery,
    DefenseEvalResult,
    DependencyLevelsQuery,
    DependencyLevelsResult,
    EdgePage,
    EdgeSummary,
    EdgeSummaryQuery,
    LevelReportQuery,
    LevelReportResult,
    MeasurementQuery,
    RolloutQuery,
    WeakEdgeQuery,
)
from repro.analysis.measurement import MeasurementResults, aggregate_reports
from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.defense.evaluation import DefenseOutcome
from repro.dynamic.rollout import (
    RolloutTrajectory,
    email_hardening_rollout,
)
from repro.model.factors import Platform


@pytest.fixture(scope="module")
def service():
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=30), seed=6021
    ).build_ecosystem()
    return AnalysisService(ecosystem)


def roundtrip(result):
    """to_dict -> json -> from_dict must reproduce the value exactly."""
    document = json.loads(json.dumps(result.to_dict()))
    return type(result).from_dict(document)


def test_measurement_results_roundtrip(service):
    measured = service.execute(MeasurementQuery())
    assert isinstance(measured, MeasurementResults)
    assert roundtrip(measured) == measured
    assert all(isinstance(line, str) for line in measured.summary_lines())


def test_level_and_dependency_results_roundtrip(service):
    report = service.execute(LevelReportQuery())
    assert isinstance(report, LevelReportResult)
    assert roundtrip(report) == report

    levels = service.execute(DependencyLevelsQuery(platform=Platform.WEB))
    assert isinstance(levels, DependencyLevelsResult)
    assert roundtrip(levels) == levels


def test_closure_summary_roundtrip(service):
    summary = service.execute(ClosureQuery())
    assert isinstance(summary, ClosureSummary)
    assert roundtrip(summary) == summary


def test_edge_summary_and_pages_roundtrip(service):
    edges = service.execute(EdgeSummaryQuery(include_weak=True))
    assert isinstance(edges, EdgeSummary)
    assert roundtrip(edges) == edges

    couple_page = service.execute(CoupleFileQuery(page_size=20))
    assert isinstance(couple_page, CouplePage)
    restored = roundtrip(couple_page)
    # Provider sets serialize sorted; record identity is preserved.
    assert restored == couple_page

    edge_page = service.execute(WeakEdgeQuery(page_size=50))
    assert isinstance(edge_page, EdgePage)
    assert roundtrip(edge_page) == edge_page


def test_defense_eval_result_roundtrip(service):
    result = service.execute(DefenseEvalQuery())
    assert isinstance(result, DefenseEvalResult)
    assert result.variants[0] == "baseline"
    assert roundtrip(result) == result
    outcome = result.row(service.primary_attacker)[0]
    assert isinstance(outcome, DefenseOutcome)
    assert DefenseOutcome.from_dict(
        json.loads(json.dumps(outcome.to_dict()))
    ) == outcome


def test_rollout_trajectory_and_step_records_roundtrip(service):
    steps = email_hardening_rollout(service.ecosystem)[:2]
    trajectory = service.execute(RolloutQuery(steps=steps))
    assert isinstance(trajectory, RolloutTrajectory)
    assert roundtrip(trajectory) == trajectory
    for step in steps:
        document = json.loads(json.dumps(step.to_dict()))
        assert document["label"] == step.label
        assert len(document["mutations"]) == len(step.mutations)


def test_direct_engine_results_serialize_too(service):
    session = service.session
    measured = aggregate_reports(
        session.auth_reports, session.collection_reports, session.graph()
    )
    assert roundtrip(measured) == measured
