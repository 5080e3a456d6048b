"""Units for the carved-out levels subsystem (`repro.levels`).

The heavy equivalence guarantees live in the differential suites
(``test_tdg_equivalence.py`` against the brute-force oracle,
``test_dynamic_equivalence.py`` against per-mutation rebuilds); this file
covers the engine's seams directly: scratch builds vs the reference
fixpoints, targeted removal re-derivation, the memoized parents map, the
factor depth aggregates, platform threading, and the streaming Couple
File enumeration.
"""

import dataclasses
from collections import Counter

import pytest

from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.core.reference import ReferenceTDG
from repro.core.tdg import TransformationDependencyGraph
from repro.dynamic import AddService, DynamicAnalysisSession, RemoveService
from repro.levels import DependencyLevel, FactorDepthBuckets
from repro.model.attacker import AttackerProfile
from repro.model.factors import CredentialFactor as CF
from repro.model.factors import Platform as PL


def _catalog(size=24, seed=777):
    return CatalogBuilder(
        CatalogSpec(total_services=size), seed=seed
    ).build_ecosystem()


@pytest.fixture(scope="module")
def graph():
    return TransformationDependencyGraph.from_ecosystem(
        _catalog(), AttackerProfile.baseline()
    )


@pytest.fixture(scope="module")
def reference():
    return ReferenceTDG.from_ecosystem(_catalog(), AttackerProfile.baseline())


# ----------------------------------------------------------------------
# Scratch fixpoints vs the brute-force reference
# ----------------------------------------------------------------------


class TestScratchFixpoints:
    def test_joint_depths_match_reference_rounds(self, graph, reference):
        assert graph.levels_engine().joint_depths() == reference._depths()

    def test_pure_full_depths_match_reference_rounds(self, graph, reference):
        assert (
            graph.levels_engine().pure_full_depths()
            == reference._pure_full_depths()
        )

    def test_direct_services_match_reference(self, graph, reference):
        assert graph.levels_engine().direct_services() == frozenset(
            node.service
            for node in reference.nodes
            if reference.is_direct(node.service)
        )

    def test_parents_map_matches_per_service_queries(self, graph):
        engine = graph.levels_engine()
        parents = engine.full_capacity_parents_map()
        assert set(parents) == {node.service for node in graph.nodes}
        for service, expected in parents.items():
            assert graph.full_capacity_parents(service) == expected

    def test_depth_zero_is_exactly_the_direct_set(self, graph):
        engine = graph.levels_engine()
        depths = engine.joint_depths()
        zero = {s for s, d in depths.items() if d == 0}
        assert zero == set(engine.direct_services())
        # Pure-full chains are a restriction of joint pooling, so every
        # pure-full depth bounds the joint depth from above.
        pure = engine.pure_full_depths()
        assert set(pure) <= set(depths)
        for service, depth in pure.items():
            assert depths[service] <= depth


# ----------------------------------------------------------------------
# Incremental re-derivation under targeted removals
# ----------------------------------------------------------------------


class TestRemovalRederivation:
    def test_removing_a_depth_zero_hub_rederives_the_cone(self):
        session = DynamicAnalysisSession(_catalog(size=30, seed=555))
        graph = session.graph()
        engine = graph.levels_engine()
        depths = engine.joint_depths()
        hubs = sorted(s for s, d in depths.items() if d == 0)
        assert hubs, "catalog should have directly compromisable services"
        session.mutate(RemoveService(hubs[0]))
        fresh = session.rebuild()
        assert (
            engine.joint_depths() == fresh.levels_engine().joint_depths()
        )
        assert (
            engine.pure_full_depths()
            == fresh.levels_engine().pure_full_depths()
        )
        for platform in (PL.WEB, PL.MOBILE):
            assert graph.dependency_levels(
                platform
            ) == fresh.dependency_levels(platform)

    def test_removed_service_disappears_from_every_map(self):
        session = DynamicAnalysisSession(_catalog(size=20, seed=99))
        graph = session.graph()
        engine = graph.levels_engine()
        engine.joint_depths()
        victim = next(iter(engine.joint_depths()))
        session.mutate(RemoveService(victim))
        assert victim not in engine.joint_depths()
        assert victim not in engine.pure_full_depths()
        assert victim not in engine.full_capacity_parents_map()
        assert victim not in engine.direct_services()
        for platform in (PL.WEB, PL.MOBILE):
            assert victim not in graph.dependency_levels(platform)


class TestRemoveReAddInOneFlush:
    """A remove+re-add burst with no query in between lands in one lazy
    flush; the re-added name has a fresh ecosystem id by then, so every
    engine mask holding the old id must follow it.  The top parent hubs
    are where a stale bit shows: their children's pure depths read them."""

    @staticmethod
    def _one_path_changed(profile):
        path = profile.auth_paths[0]
        changed = dataclasses.replace(
            path, factors=path.factors ^ {CF.REAL_NAME}
        )
        return dataclasses.replace(
            profile, auth_paths=(changed,) + profile.auth_paths[1:]
        )

    @pytest.mark.parametrize("path_changed", [False, True])
    def test_top_hubs_match_a_rebuild(self, path_changed):
        session = DynamicAnalysisSession(_catalog(size=150, seed=777))
        graph = session.graph()
        engine = graph.levels_engine()
        counts = Counter(
            parent
            for parents in engine.full_capacity_parents_map().values()
            for parent in parents
        )
        hubs = sorted(counts, key=lambda name: (-counts[name], name))[:3]
        for hub in hubs:
            profile = session.ecosystem.service(hub)
            if path_changed:
                profile = self._one_path_changed(profile)
            session.mutate(RemoveService(hub))
            session.mutate(AddService(profile))
            fresh = session.rebuild()
            scratch = fresh.levels_engine()
            assert engine.joint_depths() == scratch.joint_depths(), hub
            assert engine.pure_full_depths() == scratch.pure_full_depths(), hub
            assert (
                engine.full_capacity_parents_map()
                == scratch.full_capacity_parents_map()
            ), hub
            for platform in (PL.WEB, PL.MOBILE):
                assert graph.dependency_levels(
                    platform
                ) == fresh.dependency_levels(platform), (hub, platform)
            # The id-keyed postings the answers above read only on later
            # deltas (children are derived from the residual index).
            assert self._postings(graph) == self._postings(fresh), hub

    @staticmethod
    def _postings(graph):
        engine = graph.levels_engine()
        decode = graph.ecosystem_index().decode_mask
        residual = engine._residual_index
        return (
            {sig: decode(mask) for sig, mask in residual.items()},
            [decode(bucket) for bucket in engine._pure_buckets],
        )


# ----------------------------------------------------------------------
# Platform threading
# ----------------------------------------------------------------------


class TestPlatformThreading:
    def test_is_direct_platform_filter_matches_coverage(self, graph):
        for node in graph.nodes:
            for platform in (None, PL.WEB, PL.MOBILE):
                expected = any(
                    graph.coverage(node, path).is_direct
                    for path in node.paths_on(platform)
                )
                assert graph.is_direct(node.service, platform) == expected

    def test_platform_paths_are_memoized_once(self, graph):
        engine = graph.levels_engine()
        first = engine._paths_on(graph.nodes[0].service, PL.WEB)
        assert engine._paths_on(graph.nodes[0].service, PL.WEB) is first

    def test_unknown_service_raises_key_error(self, graph):
        with pytest.raises(KeyError):
            graph.is_direct("no-such-service")


# ----------------------------------------------------------------------
# Batch report
# ----------------------------------------------------------------------


def test_levels_report_matches_per_platform_fractions(graph):
    report = graph.levels_report((PL.WEB, PL.MOBILE))
    assert set(report) == {PL.WEB, PL.MOBILE}
    for platform, fractions in report.items():
        assert fractions == graph.level_fractions(platform)
        assert set(fractions) == set(DependencyLevel)


# ----------------------------------------------------------------------
# Factor depth aggregates
# ----------------------------------------------------------------------


class TestFactorDepthBuckets:
    def test_min_excluding_distinguishes_the_sole_minimum(self):
        buckets = FactorDepthBuckets()
        assert buckets.move("a", CF.REAL_NAME, None, 2)
        assert buckets.move("b", CF.REAL_NAME, None, 5)
        assert buckets.min_excluding(CF.REAL_NAME, "x") == 2
        assert buckets.min_excluding(CF.REAL_NAME, "a") == 5
        assert buckets.min_excluding(CF.REAL_NAME, "b") == 2

    def test_crowded_minimum_ignores_exclusion(self):
        buckets = FactorDepthBuckets()
        buckets.move("a", CF.REAL_NAME, None, 1)
        assert buckets.move("b", CF.REAL_NAME, None, 1)
        for excluded in ("a", "b", "x"):
            assert buckets.min_excluding(CF.REAL_NAME, excluded) == 1

    def test_summary_change_signal_gates_propagation(self):
        buckets = FactorDepthBuckets()
        buckets.move("a", CF.REAL_NAME, None, 0)
        buckets.move("b", CF.REAL_NAME, None, 0)
        # A deep provider moving cannot change any consumer's answer.
        assert not buckets.move("c", CF.REAL_NAME, None, 4)
        assert not buckets.move("c", CF.REAL_NAME, 4, 6)
        assert not buckets.move("c", CF.REAL_NAME, 6, None)
        # Removing one of two at-minimum providers does change it.
        assert buckets.move("a", CF.REAL_NAME, 0, None)
        assert buckets.min_excluding(CF.REAL_NAME, "b") is None

    def test_empty_factor_has_no_summary(self):
        buckets = FactorDepthBuckets()
        assert buckets.summary(CF.REAL_NAME) is None
        assert buckets.min_excluding(CF.REAL_NAME, "a") is None


# ----------------------------------------------------------------------
# Streaming Couple File enumeration
# ----------------------------------------------------------------------


class TestSignatureParentsView:
    def test_retract_counts_each_affected_signature_exactly_once(self):
        graph = TransformationDependencyGraph.from_ecosystem(
            _catalog(size=20, seed=5), AttackerProfile.baseline()
        )
        for node in graph.nodes:
            graph.full_capacity_parents(node.service)
            graph.half_capacity_parents(node.service)
        view = graph.parents_view()
        snapshot = view.snapshot()
        assert snapshot
        factor = next(iter(next(iter(snapshot))))
        expected = sum(1 for signature in snapshot if factor in signature)
        view.retract(frozenset({factor}))
        stats = view.stats()
        # Full and half member sets retract together: one count per
        # signature, not one per cache.
        assert stats["retractions"] == expected
        assert stats["entries"] == len(snapshot) - expected

    def test_rejoins_after_mutations_equal_scratch_joins(self):
        from repro.dynamic import MutationStream

        session = DynamicAnalysisSession(_catalog(size=26, seed=31))
        graph = session.graph()
        for node in graph.nodes:
            graph.full_capacity_parents(node.service)
            graph.half_capacity_parents(node.service)
        view = graph.parents_view()
        before = view.stats()
        assert before["entries"] > 0 and before["retractions"] == 0

        stream = MutationStream(seed=8)
        for _ in range(4):
            session.mutate(stream.next_mutation(session.ecosystem))
        for node in graph.nodes:
            graph.full_capacity_parents(node.service)
        after = view.stats()
        assert after["derivations"] >= before["derivations"]
        # The re-joined views must equal scratch joins.
        attacker_view = graph.attacker_index()
        for signature, (full, half) in view.snapshot().items():
            provider_sets = [
                attacker_view.static_provider_set(factor)
                for factor in signature
            ]
            scratch = frozenset.intersection(*provider_sets)
            assert full == scratch
            assert half == frozenset.union(*provider_sets) - scratch


class TestIterCouples:
    def test_streams_exactly_the_concatenated_couple_files(self):
        graph = TransformationDependencyGraph.from_ecosystem(
            _catalog(size=26, seed=321), AttackerProfile.baseline()
        )
        streamed = list(graph.iter_couples())
        expected = [
            record
            for node in graph.nodes
            for record in graph.couples(node.service)
        ]
        assert streamed == expected

    def test_does_not_populate_the_per_service_cache(self):
        graph = TransformationDependencyGraph.from_ecosystem(
            _catalog(size=18, seed=11), AttackerProfile.baseline()
        )
        for _record in graph.iter_couples():
            pass
        assert not graph._couples_cache

    def test_reuses_memoized_couple_files_when_present(self):
        graph = TransformationDependencyGraph.from_ecosystem(
            _catalog(size=18, seed=12), AttackerProfile.baseline()
        )
        warm = graph.nodes[0].service
        graph.couples(warm)
        streamed = [r for r in graph.iter_couples() if r.target == warm]
        assert tuple(streamed) == graph.couples(warm)

    def test_couple_file_delegates_to_the_stream(self):
        graph = TransformationDependencyGraph.from_ecosystem(
            _catalog(size=18, seed=13), AttackerProfile.baseline()
        )
        assert graph.couple_file() == tuple(graph.iter_couples())
