"""The level engine's maintained tables: counts, node order, read-only maps.

:class:`~repro.levels.DepthFixpointEngine` keeps, per platform, the
ordered service -> levels map and the number of services at each level,
and reads the Section IV fractions off those counts.  These tests pin the
maintained tables to scratch recounts:

- after every mutation of the differential suite's sequences
  (``test_dynamic_equivalence.py``), the counts equal a recount of the
  served map, and the map equals a scratch engine's over the same graph,
  entry for entry and in node order;
- on the calibrated 201-service catalog the counts give the brute-force
  oracle's fractions exactly;
- a map once served never changes, so a result served before a mutation
  still encodes to the same bytes after it;
- the served map is read-only.
"""

import json
from collections import Counter

import pytest

from repro.api import AnalysisService
from repro.api.queries import DependencyLevelsQuery
from repro.api.wire import result_to_dict
from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.core.reference import ReferenceTDG
from repro.core.tdg import TransformationDependencyGraph
from repro.dynamic import (
    AddAuthPath,
    AddService,
    DynamicAnalysisSession,
    MutationStream,
    RemoveAuthPath,
    RemoveService,
)
from repro.levels import DependencyLevel, DepthFixpointEngine
from repro.model.attacker import AttackerProfile
from repro.model.factors import Platform
from tests.test_dynamic_equivalence import _PROFILES, SEQUENCES, STEPS

PLATFORMS = (Platform.WEB, Platform.MOBILE)


def _recount(levels):
    counts = Counter(level for entry in levels.values() for level in entry)
    return {level: counts[level] for level in DependencyLevel}


def _counts(engine, platform):
    """The engine's maintained per-level counts, current as of a read."""
    engine.dependency_levels(platform)
    return engine._levels[platform].counts


def _assert_tables_match_scratch(graph, context):
    engine = graph.levels_engine()
    scratch = DepthFixpointEngine(graph)
    for platform in PLATFORMS:
        levels = engine.dependency_levels(platform)
        assert _counts(engine, platform) == _recount(levels), (
            context,
            platform,
        )
        expected = scratch.dependency_levels(platform)
        assert list(levels.items()) == list(expected.items()), (
            context,
            platform,
        )
        assert _counts(engine, platform) == _counts(scratch, platform), (
            context,
            platform,
        )
        if expected:
            assert engine.level_fractions(
                platform
            ) == scratch.level_fractions(platform), (context, platform)


def _catalog(size, seed):
    return CatalogBuilder(
        CatalogSpec(total_services=size), seed=seed
    ).build_ecosystem()


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_counts_equal_scratch_recount_after_every_mutation(sequence):
    ecosystem = _catalog(12 + 4 * (sequence % 4), 300 + sequence)
    label = "baseline" if sequence % 2 == 0 else "se_database"
    session = DynamicAnalysisSession(ecosystem, attacker=_PROFILES[label])
    stream = MutationStream(seed=sequence)
    _assert_tables_match_scratch(session.graph(), (sequence, "initial"))
    for step in range(STEPS):
        mutation = stream.next_mutation(session.ecosystem)
        session.mutate(mutation)
        _assert_tables_match_scratch(
            session.graph(), (sequence, step, mutation.describe())
        )


def test_counts_follow_every_attacker_view():
    session = DynamicAnalysisSession(_catalog(18, 99), attackers=_PROFILES)
    stream = MutationStream(seed=41)
    for step in range(STEPS):
        mutation = stream.next_mutation(session.ecosystem)
        session.mutate(mutation)
        for label in _PROFILES:
            _assert_tables_match_scratch(
                session.graph(label), (step, label, mutation.describe())
            )


def test_remove_and_re_add_in_one_flush_keeps_node_order():
    """A removed-then-re-added service moves to the end of the node
    order; the maintained map must follow it even though its entry may
    come out unchanged."""
    session = DynamicAnalysisSession(_catalog(24, 777))
    graph = session.graph()
    for platform in PLATFORMS:
        graph.dependency_levels(platform)
    first = next(iter(session.ecosystem))
    second = list(session.ecosystem)[1]
    session.mutate(RemoveService(service=first.name))
    session.mutate(RemoveService(service=second.name))
    session.mutate(AddService(profile=second))
    session.mutate(AddService(profile=first))
    _assert_tables_match_scratch(graph, "re-added")
    assert list(graph.dependency_levels(Platform.WEB))[-2:] == [
        second.name,
        first.name,
    ]


def test_service_regaining_a_platform_returns_to_its_node_position():
    session = DynamicAnalysisSession(_catalog(24, 777))
    graph = session.graph()
    name = next(iter(graph.dependency_levels(Platform.WEB)))
    web_paths = graph.node(name).paths_on(Platform.WEB)
    for path in web_paths:
        session.mutate(RemoveAuthPath(service=name, path=path))
    assert name not in graph.dependency_levels(Platform.WEB)
    _assert_tables_match_scratch(graph, "left web")
    session.mutate(AddAuthPath(service=name, path=web_paths[0]))
    _assert_tables_match_scratch(graph, "rejoined web")
    assert next(iter(graph.dependency_levels(Platform.WEB))) == name


def test_counts_give_reference_fractions_on_golden_catalog(
    default_ecosystem,
):
    for profile in (
        AttackerProfile.baseline(),
        AttackerProfile.with_se_database(),
    ):
        graph = TransformationDependencyGraph.from_ecosystem(
            default_ecosystem, profile
        )
        reference = ReferenceTDG(graph.nodes, graph.attacker)
        engine = graph.levels_engine()
        for platform in PLATFORMS:
            counts = _counts(engine, platform)
            total = len(engine.dependency_levels(platform))
            assert {
                level: counts[level] / total for level in DependencyLevel
            } == reference.level_fractions(platform), (profile, platform)


def test_served_result_keeps_its_bytes_across_mutations():
    service = AnalysisService(_catalog(36, 3005))
    served = service.execute(DependencyLevelsQuery())
    encoded = json.dumps(result_to_dict(served))
    stream = MutationStream(seed=12)
    changed = False
    for _ in range(12):
        service.apply(stream.next_mutation(service.ecosystem))
        latest = service.execute(DependencyLevelsQuery())
        changed = changed or dict(latest.levels) != dict(served.levels)
        assert json.dumps(result_to_dict(served)) == encoded
    # The stream did reclassify something, so the check above saw the
    # engine refresh its table under a map it had already handed out.
    assert changed


def test_served_map_is_read_only_and_shared_until_a_flush():
    session = DynamicAnalysisSession(_catalog(24, 777))
    graph = session.graph()
    levels = graph.dependency_levels(Platform.WEB)
    service = next(iter(levels))
    with pytest.raises(TypeError):
        levels[service] = frozenset()
    with pytest.raises(TypeError):
        del levels[service]
    assert graph.dependency_levels(Platform.WEB) is levels
    session.mutate(RemoveService(service=service))
    assert service in levels
    assert service not in graph.dependency_levels(Platform.WEB)
