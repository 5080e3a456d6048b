"""Tests for the measurement study, figure generators and insights."""

import pytest

from repro.analysis.figures import (
    PAPER_DEPENDENCY,
    connection_graph_summary,
    dependency_level_rows,
    fig3_rows,
    fig4_graph,
    render_connection_graph,
    render_fig11_tdg,
    table1_rows,
)
from repro.analysis.insights import compute_insights
from repro.api import AnalysisService, MeasurementQuery
from repro.catalog.spec import TABLE1_MOBILE, TABLE1_WEB
from repro.core.tdg import DependencyLevel
from repro.model.factors import Platform as PL


@pytest.fixture(scope="module")
def results(default_actfort):
    return AnalysisService.from_actfort(default_actfort).execute(
        MeasurementQuery()
    )


# "default_actfort" is session-scoped in conftest; re-export at module scope.
@pytest.fixture(scope="module")
def default_actfort(request):
    return request.getfixturevalue("default_actfort")


class TestMeasurement:
    def test_service_count(self, results):
        assert results.service_count == 201

    def test_sms_dominance(self, results):
        """Paper: SMS takes up over 80% of authentication."""
        for platform in (PL.WEB, PL.MOBILE):
            assert results.fig3[platform]["uses_sms_anywhere"] > 0.8

    def test_extra_info_minority(self, results):
        """Paper: less than 20% demand extra information."""
        for platform in (PL.WEB, PL.MOBILE):
            assert results.fig3[platform]["extra_info_required"] < 0.2

    def test_signin_reset_asymmetry(self, results):
        for platform in (PL.WEB, PL.MOBILE):
            stats = results.fig3[platform]
            assert stats["sms_only_signin"] < stats["sms_only_reset"]

    def test_direct_rate_near_paper(self, results):
        web = results.dependency[PL.WEB][DependencyLevel.DIRECT]
        mobile = results.dependency[PL.MOBILE][DependencyLevel.DIRECT]
        assert abs(web - 0.7413) < 0.08
        assert abs(mobile - 0.7556) < 0.08

    def test_all_five_levels_populated_on_mobile(self, results):
        fractions = results.dependency[PL.MOBILE]
        for level in DependencyLevel:
            assert fractions[level] > 0.0, level

    def test_table1_within_tolerance(self, results):
        """Every Table I cell lands within 10pp of the paper's value."""
        for platform, paper in (
            (PL.WEB, TABLE1_WEB),
            (PL.MOBILE, TABLE1_MOBILE),
        ):
            for kind, expected in paper.items():
                measured = results.table1[platform][kind]
                assert abs(measured - expected) < 0.10, (platform, kind)

    def test_mobile_exposes_more_than_web(self, results):
        """Table I's headline: mobile apps leak more than websites."""
        higher = sum(
            1
            for kind in TABLE1_WEB
            if results.table1[PL.MOBILE][kind] > results.table1[PL.WEB][kind]
        )
        assert higher >= 7  # of 9 kinds

    def test_summary_lines_render(self, results):
        lines = results.summary_lines()
        assert any("services analyzed" in line for line in lines)


class TestFigureGenerators:
    def test_fig3_rows_shape(self, results):
        rows = fig3_rows(results)
        assert len(rows) == 14  # 7 metrics x 2 platforms
        assert all(len(row) == 4 for row in rows)

    def test_table1_rows_shape(self, results):
        rows = table1_rows(results)
        assert len(rows) == 9
        assert rows[0][0] == "real_name"

    def test_dependency_rows_cover_levels(self, results):
        rows = dependency_level_rows(results)
        assert [row[0] for row in rows] == [l.value for l in DependencyLevel]

    def test_paper_reference_values_complete(self):
        for platform in (PL.WEB, PL.MOBILE):
            assert set(PAPER_DEPENDENCY[platform]) == set(DependencyLevel)

    def test_fig4_graph_size_and_fringe(self, default_actfort):
        graph = fig4_graph(default_actfort.tdg(), size=44)
        assert graph.number_of_nodes() == 44
        summary = connection_graph_summary(graph)
        assert summary["fringe"] + summary["internal"] == 44
        assert summary["fringe_share"] > 0.5
        assert summary["reachable_from_fringe"] > summary["fringe_share"]

    def test_fig4_too_large_request_rejected(self, default_actfort):
        with pytest.raises(ValueError):
            fig4_graph(default_actfort.tdg(), size=10_000)

    def test_render_connection_graph(self, default_actfort):
        graph = fig4_graph(default_actfort.tdg(), size=44)
        text = render_connection_graph(graph)
        assert "fringe" in text

    def test_render_fig11_contains_seed_nodes(self, default_actfort):
        text = render_fig11_tdg(default_actfort.tdg())
        for name in ("china_railway", "ctrip", "alipay", "gmail"):
            assert f"[{name}]" in text
        assert "Log_1" in text


class TestRunBatch:
    def test_run_batch_matches_solo_runs(self, default_ecosystem):
        """Batched measurement over shared indexes must equal per-profile
        runs, in the order the profiles were given."""
        from repro.model.attacker import AttackerProfile

        profiles = [
            AttackerProfile.baseline(),
            AttackerProfile.with_se_database(),
        ]
        labels = [f"attacker_{index}" for index in range(len(profiles))]
        service = AnalysisService(
            default_ecosystem, attackers=dict(zip(labels, profiles))
        )
        batch = service.execute_batch(
            [MeasurementQuery(attacker=label) for label in labels]
        )
        assert len(batch) == len(profiles)
        for profile, batched in zip(profiles, batch):
            solo = AnalysisService(default_ecosystem, attacker=profile)
            assert batched == solo.execute(MeasurementQuery())


class TestInsights:
    def test_all_insights_hold_on_default_catalog(self, default_actfort):
        checks = compute_insights(default_actfort)
        assert len(checks) == 5
        for check in checks:
            assert check.holds, f"{check.key}: {check.evidence}"

    def test_insight_keys_stable(self, default_actfort):
        keys = [c.key for c in compute_insights(default_actfort)]
        assert keys == [
            "email_gateway",
            "asymmetry",
            "domains",
            "masking",
            "robust_factors",
        ]
