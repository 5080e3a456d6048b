"""Differential suite for the :class:`~repro.api.AnalysisService` facade.

Measurement, defense evaluation and rollout what-ifs are served only
through the facade; this suite locks its results bit-for-bit against
*direct engine use* -- fresh ActFort pipelines, hand-rolled session
loops -- across seeded ecosystems with mutation sequences interleaved,
so the facade's version-keyed cache, plan/execute batching, and stream
pagination can never drift from the engines they front.
"""

from __future__ import annotations

import pytest

from repro.analysis.measurement import aggregate_reports
from repro.api import (
    AnalysisService,
    ClosureQuery,
    CoupleFileQuery,
    DefenseEvalQuery,
    DependencyLevelsQuery,
    EdgeSummaryQuery,
    LevelReportQuery,
    MeasurementQuery,
    ResultCache,
    RolloutQuery,
    WeakEdgeQuery,
)
from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.core.actfort import ActFort
from repro.core.strategy import StrategyEngine
from repro.defense.evaluation import measure_outcome, standard_defenses
from repro.dynamic import DynamicAnalysisSession, MutationStream
from repro.dynamic.events import RemoveService
from repro.dynamic.rollout import (
    RolloutTrajectory,
    TrajectoryPoint,
    email_hardening_rollout,
)
from repro.model.attacker import AttackerProfile
from repro.model.factors import Platform
from repro.obs import Instrumentation

#: Ten seeded ecosystems, as the acceptance criteria demand.
SEEDS = tuple(range(3001, 3011))

#: Small enough that per-checkpoint from-scratch oracles stay cheap.
SIZE = 36

#: Mutations applied between differential checkpoints.
BURST = 3
CHECKPOINTS = 3


def build_ecosystem(seed, size=SIZE):
    return CatalogBuilder(
        CatalogSpec(total_services=size), seed=seed
    ).build_ecosystem()


def reference_measurement(ecosystem, profile):
    """The pre-facade measurement path: fresh ActFort + direct aggregation."""
    actfort = ActFort.from_ecosystem(ecosystem, attacker=profile)
    return aggregate_reports(
        actfort.auth_reports, actfort.collection_reports, actfort.tdg()
    )


def fresh_graph(ecosystem, profile):
    return ActFort.from_ecosystem(ecosystem, attacker=profile).tdg()


# ----------------------------------------------------------------------
# Facade vs direct engines, mutations interleaved
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_facade_queries_match_direct_engines_under_mutations(seed):
    ecosystem = build_ecosystem(seed)
    profiles = {
        "baseline": AttackerProfile.baseline(),
        "se": AttackerProfile.with_se_database(),
    }
    service = AnalysisService(ecosystem, attackers=profiles)
    stream = MutationStream(seed=seed)
    for checkpoint in range(CHECKPOINTS):
        if checkpoint:
            for _ in range(BURST):
                service.apply(stream.next_mutation(service.ecosystem))
        for label, profile in profiles.items():
            oracle = fresh_graph(service.ecosystem, profile)

            report = service.execute(LevelReportQuery(attacker=label))
            assert report.fractions == oracle.levels_report(
                (Platform.WEB, Platform.MOBILE)
            )
            assert report.version == service.version

            levels = service.execute(
                DependencyLevelsQuery(platform=Platform.WEB, attacker=label)
            )
            assert levels.levels == oracle.dependency_levels(Platform.WEB)

            measured = service.execute(MeasurementQuery(attacker=label))
            assert measured == reference_measurement(
                service.ecosystem, profile
            )

            closure = StrategyEngine(oracle).forward_closure()
            summary = service.execute(ClosureQuery(attacker=label))
            assert summary.compromised == tuple(
                entry.service for entry in closure.entries
            )
            assert summary.safe == tuple(sorted(closure.safe))
            assert summary.final_info == closure.final_info
            assert summary.rounds == closure.by_round()

            edges = service.execute(EdgeSummaryQuery(attacker=label))
            assert edges.strong_edges == len(oracle.strong_edges())
            assert edges.fringe == len(oracle.fringe_nodes())

            # The generic session.query surface agrees with the typed one.
            assert (
                service.raw_query(
                    "level_fractions", Platform.WEB, attacker=label
                )
                == report.fractions[Platform.WEB]
            )


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_stream_pagination_reassembles_exact_record_sequences(seed):
    ecosystem = build_ecosystem(seed)
    service = AnalysisService(ecosystem)
    stream = MutationStream(seed=seed + 17)
    for _ in range(2):
        service.apply(stream.next_mutation(service.ecosystem))
    oracle = fresh_graph(service.ecosystem, AttackerProfile.baseline())

    records = []
    cursor = 0
    while cursor is not None:
        page = service.execute(CoupleFileQuery(cursor=cursor, page_size=97))
        records.extend(page.records)
        cursor = page.next_cursor
    assert tuple(records) == oracle.couple_file()

    edges = []
    cursor = 0
    while cursor is not None:
        page = service.execute(WeakEdgeQuery(cursor=cursor, page_size=301))
        edges.extend(page.edges)
        cursor = page.next_cursor
    assert tuple(edges) == tuple(oracle.iter_weak_edges())


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_couple_pagination_interrupted_by_mutation_resumes_at_watermark(seed):
    """Cursor stability across versions: a paginated Couple File read
    interrupted by a mutation must resume without skipping or
    duplicating records.

    The contract: ``next_cursor`` is a segment watermark (service
    ordinal + in-segment offset).  Services drained before the mutation
    are never re-emitted; services still ahead are served in their
    post-mutation state; the partially-drained service resumes at its
    recorded offset.  The expected tail is reconstructed from a fresh
    post-mutation oracle spliced at the watermark the service handed
    out.
    """
    ecosystem = build_ecosystem(seed)
    service = AnalysisService(ecosystem)
    old_oracle = fresh_graph(service.ecosystem, AttackerProfile.baseline())
    old_stream = old_oracle.couple_file()

    # Drain a few pages at version 0.
    consumed = []
    cursor = 0
    for _page in range(3):
        page = service.execute(CoupleFileQuery(cursor=cursor, page_size=19))
        consumed.extend(page.records)
        cursor = page.next_cursor
        if cursor is None:
            break
    assert tuple(consumed) == old_stream[: len(consumed)]
    if cursor is None:
        pytest.skip("stream shorter than the interruption point")
    assert isinstance(cursor, str)  # the watermark token form

    from repro.streams import StreamCursor

    watermark = StreamCursor.parse(cursor)

    # Interrupt: one mutation lands between pages.
    stream = MutationStream(seed=seed + 29)
    service.apply(stream.next_mutation(service.ecosystem))
    new_oracle = fresh_graph(service.ecosystem, AttackerProfile.baseline())

    # Resume with the pre-mutation token until exhaustion.
    tail = []
    while cursor is not None:
        page = service.execute(CoupleFileQuery(cursor=cursor, page_size=19))
        tail.extend(page.records)
        cursor = page.next_cursor

    # Expected tail: every service at or past the watermark, in graph
    # order, in its *post-mutation* state, resuming mid-segment at the
    # watermark offset.
    eco = service.session.graph().ecosystem_index()
    expected = []
    for name in eco.names:
        ordinal = eco.ordinal_of(name)
        if ordinal < watermark.ordinal:
            continue
        records = new_oracle.couples(name)
        if ordinal == watermark.ordinal:
            records = records[watermark.offset :]
        expected.extend(records)
    assert tuple(tail) == tuple(expected)

    # No drained segment is ever re-emitted: targets fully consumed
    # before the mutation do not reappear in the tail.
    drained = {record.target for record in consumed} - {
        consumed[-1].target
    }
    assert drained.isdisjoint({record.target for record in tail})


# ----------------------------------------------------------------------
# Measurement, defense and rollout queries vs restated engines
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_run_on_ecosystem_and_run_batch_delegate_bit_identically(seed):
    ecosystem = build_ecosystem(seed)
    solo = AnalysisService(ecosystem).execute(MeasurementQuery())
    assert solo == reference_measurement(
        ecosystem, AttackerProfile.baseline()
    )

    profiles = (
        AttackerProfile.baseline(),
        AttackerProfile.with_se_database(),
        AttackerProfile.passive_observer(),
    )
    labels = [f"attacker_{index}" for index in range(len(profiles))]
    service = AnalysisService(
        ecosystem, attackers=dict(zip(labels, profiles))
    )
    batch = service.execute_batch(
        [MeasurementQuery(attacker=label) for label in labels]
    )
    assert batch == tuple(
        reference_measurement(ecosystem, profile) for profile in profiles
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_run_session_matches_rebuild_after_mutations(seed):
    ecosystem = build_ecosystem(seed)
    session = DynamicAnalysisSession(ecosystem)
    stream = MutationStream(seed=seed + 5)
    for _ in range(4):
        session.mutate(stream.next_mutation(session.ecosystem))
    measured = AnalysisService.from_session(session).execute(
        MeasurementQuery()
    )
    assert measured == reference_measurement(
        session.ecosystem, session.attackers["baseline"]
    )


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_evaluate_attackers_matches_direct_grid(seed):
    ecosystem = build_ecosystem(seed)
    attackers = {
        "baseline": AttackerProfile.baseline(),
        "se": AttackerProfile.with_se_database(),
    }
    result = AnalysisService(ecosystem, attackers=attackers).execute(
        DefenseEvalQuery(attackers=tuple(attackers))
    )
    grid = {label: result.row(label) for label in attackers}

    # The pre-facade algorithm, restated directly over the engines.
    defenses = standard_defenses()
    variants = [("baseline", ecosystem)]
    for label, transform in defenses.items():
        variants.append((label, transform(ecosystem)))
    combined = ecosystem
    for transform in defenses.values():
        combined = transform(combined)
    variants.append(("all_combined", combined))
    expected = {label: [] for label in attackers}
    for variant_label, variant_ecosystem in variants:
        base = ActFort.from_ecosystem(variant_ecosystem)
        clones = base.batch(attackers[label] for label in attackers)
        for label, clone in zip(attackers, clones):
            expected[label].append(
                measure_outcome(
                    variant_label, clone.tdg(), len(variant_ecosystem)
                )
            )
    assert grid == {
        label: tuple(outcomes) for label, outcomes in expected.items()
    }

    service = AnalysisService(ecosystem)
    single = service.execute(DefenseEvalQuery())
    assert single.row(service.primary_attacker) == grid["baseline"]


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_evaluate_rollout_matches_direct_session_loop(seed):
    ecosystem = build_ecosystem(seed, size=24)
    steps = email_hardening_rollout(ecosystem)[:4]
    trajectory = AnalysisService(ecosystem).execute(
        RolloutQuery(steps=steps, include_weak=True)
    )

    # The pre-facade planner loop, restated over a raw session.
    attacker = AttackerProfile.baseline()
    session = DynamicAnalysisSession(ecosystem, attacker)
    platforms = (Platform.WEB, Platform.MOBILE)

    def measure(label, mutated):
        fractions = session.level_report(platforms)
        graph = session.graph()
        return TrajectoryPoint(
            step=label,
            services=len(session),
            mutated_services=mutated,
            level_fractions=fractions,
            strong_edges=len(graph.strong_edges()),
            fringe=len(graph.fringe_nodes()),
            weak_edges=session.weak_edge_count(),
        )

    points = [measure("baseline", ())]
    for step in steps:
        touched = []
        for mutation in step.mutations:
            delta = session.mutate(mutation)
            touched.extend(delta.touched_services)
        points.append(measure(step.label, tuple(touched)))
    expected = RolloutTrajectory(attacker=attacker, points=tuple(points))
    assert trajectory == expected


def test_probe_mode_service_matches_profile_mode_and_is_read_only():
    ecosystem = build_ecosystem(SEEDS[0])
    actfort = ActFort.from_ecosystem(ecosystem)
    service = actfort.as_service()
    assert service.ecosystem is None
    assert service.execute(MeasurementQuery()) == reference_measurement(
        ecosystem, AttackerProfile.baseline()
    )
    stream = MutationStream(seed=1)
    with pytest.raises(RuntimeError):
        service.apply(stream.next_mutation(ecosystem))
    with pytest.raises(RuntimeError):
        service.execute(DefenseEvalQuery())


# ----------------------------------------------------------------------
# Cache and plan semantics
# ----------------------------------------------------------------------


def test_repeated_queries_at_unchanged_version_hit_the_cache():
    ecosystem = build_ecosystem(SEEDS[1])
    service = AnalysisService(ecosystem)
    first = service.execute(LevelReportQuery())
    again = service.execute(LevelReportQuery())
    assert again is first  # O(1) lookup returns the stored object
    stats = service.cache_stats()
    assert stats.hits == 1 and stats.misses == 1

    # The implicit primary label and its explicit spelling share a slot.
    explicit = service.execute(
        LevelReportQuery(attacker=service.primary_attacker)
    )
    assert explicit is first


def test_mutation_bumps_version_and_invalidates_by_construction():
    ecosystem = build_ecosystem(SEEDS[2])
    service = AnalysisService(ecosystem)
    before = service.execute(MeasurementQuery())
    stream = MutationStream(seed=9)
    receipt = service.apply(stream.next_mutation(service.ecosystem))
    assert receipt.version == service.version == 1
    after = service.execute(MeasurementQuery())
    assert after is not before
    assert after == reference_measurement(
        service.ecosystem, AttackerProfile.baseline()
    )


def test_newer_version_put_drops_older_versions_only():
    instrumentation = Instrumentation()
    cache = ResultCache(instrumentation=instrumentation)
    cache.put("levels", 0, "a0")
    cache.put("closure", 0, "b0")
    cache.put("levels", 1, "a1")
    assert not cache.peek("levels", 0) and not cache.peek("closure", 0)
    cache.put("closure", 1, "b1")
    assert cache.entries_at(1) == [("levels", "a1"), ("closure", "b1")]
    assert cache.stats().entries == 2
    # Superseded versions are not LRU pressure.
    assert instrumentation.registry.value(
        "repro_result_cache_evictions_total"
    ) == 0

    # Through the facade: a re-query after a mutation leaves only the
    # current version's entries behind.
    service = AnalysisService(build_ecosystem(SEEDS[2]))
    service.execute_batch([LevelReportQuery(), MeasurementQuery()])
    service.apply(MutationStream(seed=9).next_mutation(service.ecosystem))
    service.execute(MeasurementQuery())
    assert service.cache_stats().entries == 1


def test_plan_dedupes_identical_queries_and_rejects_stale_plans():
    ecosystem = build_ecosystem(SEEDS[3])
    service = AnalysisService(ecosystem)
    plan = service.plan(
        [LevelReportQuery(), LevelReportQuery(), MeasurementQuery()]
    )
    assert plan.steps[0].key == plan.steps[1].key
    results = service.run(plan)
    assert results[0] is results[1]
    # Only two distinct computations happened.
    assert service.cache_stats().misses == 2

    stream = MutationStream(seed=11)
    stale = service.plan([LevelReportQuery()])
    service.apply(stream.next_mutation(service.ecosystem))
    with pytest.raises(ValueError):
        service.run(stale)


def test_batch_planning_shares_one_level_flush_across_queries():
    ecosystem = build_ecosystem(SEEDS[4])
    service = AnalysisService(ecosystem)
    batch = [
        LevelReportQuery(platforms=(Platform.WEB,)),
        LevelReportQuery(platforms=(Platform.MOBILE,)),
        MeasurementQuery(),
    ]
    service.execute_batch(batch)
    registry = service.instrumentation.registry
    labels = {"attacker": service.primary_attacker}
    victim = next(iter(service.ecosystem)).name
    receipt = service.apply(RemoveService(service=victim))
    assert not receipt.delta.is_noop
    before = registry.value("repro_levels_flushes_total", labels)
    service.execute_batch(batch)
    # The first level read absorbs the delta; the other two queries read
    # the maintained tables.
    assert registry.value("repro_levels_flushes_total", labels) == before + 1
