"""Differential tests: the incremental engine vs from-scratch rebuilds.

PR 1 locked the indexed TDG engine to the brute-force seed oracle; this
suite applies the same discipline to the incremental engine.  Twenty
seeded mutation sequences (mixing service add/remove, auth-path add/
remove, masking changes, and per-service hardening) are replayed through a
:class:`~repro.dynamic.session.DynamicAnalysisSession`, and after **every**
mutation the maintained graph is compared against a fresh
:class:`~repro.core.tdg.TransformationDependencyGraph` built from the
mutated ecosystem:

- identical dependency-level maps and exact level fractions per platform,
- identical strong- and weak-directivity edge sets,
- identical couple records (same tuples, same enumeration order -- the
  Couple File is an artifact, not just a set),
- identical full-/half-capacity parents per service,
- identical **incrementally-maintained depth fixpoints** (both the
  joint-coverage and the pure-full-chain map) against the fresh graph's
  scratch build, plus the level engine's memoized parents map,
- field-for-field identical :class:`~repro.core.index.EcosystemIndex` and
  :class:`~repro.core.index.AttackerIndex` postings (order included,
  reverse-dependency postings included), so splice bugs cannot hide
  behind order-insensitive query comparisons.

Queries run *before* each mutation too, so every memo family is warm when
the delta's invalidation hits it.
"""

import pytest

from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.core.strategy import StrategyEngine
from repro.dynamic import DynamicAnalysisSession, MutationStream
from repro.model.attacker import AttackerProfile
from repro.model.factors import CredentialFactor, Platform

#: Twenty seeded mutation sequences (the acceptance floor).
SEQUENCES = tuple(range(20))

#: Mutations per sequence.
STEPS = 12

_PROFILES = {
    "baseline": AttackerProfile.baseline(),
    "se_database": AttackerProfile.with_se_database(),
}


def _assert_matches_rebuild(session, label, context):
    maintained = session.graph(label)
    fresh = session.rebuild(label)
    assert frozenset(maintained._nodes) == frozenset(fresh._nodes), context
    for platform in (Platform.WEB, Platform.MOBILE):
        assert maintained.dependency_levels(
            platform
        ) == fresh.dependency_levels(platform), (context, platform)
        levels = fresh.dependency_levels(platform)
        if levels:
            # Exact float equality: both engines must count identically.
            assert maintained.level_fractions(
                platform
            ) == fresh.level_fractions(platform), (context, platform)
    assert maintained.strong_edges() == fresh.strong_edges(), context
    assert maintained.weak_edges() == fresh.weak_edges(), context
    assert maintained.fringe_nodes() == fresh.fringe_nodes(), context
    # The incrementally-maintained depth fixpoints (both variants) must
    # equal the fresh graph's from-scratch build, value for value.
    maintained_engine = maintained.levels_engine()
    fresh_engine = fresh.levels_engine()
    assert maintained_engine.joint_depths() == fresh_engine.joint_depths(), (
        context
    )
    assert (
        maintained_engine.pure_full_depths()
        == fresh_engine.pure_full_depths()
    ), context
    assert (
        maintained_engine.full_capacity_parents_map()
        == fresh_engine.full_capacity_parents_map()
    ), context
    assert (
        maintained_engine.direct_services() == fresh_engine.direct_services()
    ), context
    for service in fresh._nodes:
        assert maintained.couples(service) == fresh.couples(service), (
            context,
            service,
        )
        assert maintained.full_capacity_parents(
            service
        ) == fresh.full_capacity_parents(service), (context, service)
        assert maintained.half_capacity_parents(
            service
        ) == fresh.half_capacity_parents(service), (context, service)
    # The spliced record streams must equal a scratch enumeration *in
    # order* (the Couple File is an artifact, not just a set), and every
    # segment the maintained engine kept or re-derived must match the
    # fresh graph's per-service records.
    assert tuple(maintained.iter_couples()) == tuple(fresh.iter_couples()), (
        context
    )
    assert tuple(maintained.iter_weak_edges()) == tuple(
        fresh.iter_weak_edges()
    ), context
    stream_engine = maintained._streams_engine
    assert stream_engine is not None
    for service, records in stream_engine.segment_snapshot("couples").items():
        assert records == fresh.couples(service), (context, service)
    for service, edges in stream_engine.segment_snapshot(
        "weak_edges"
    ).items():
        yielded, expected = set(), []
        for record in fresh.couples(service):
            # Discovery order within a record is sorted (providers is a
            # frozenset; the engine pins a hash-seed-independent order).
            for provider in sorted(record.providers):
                if provider not in yielded:
                    yielded.add(provider)
                    expected.append((provider, service))
        assert edges == tuple(expected), (context, service)
    # The signature-parents view's materialized member sets must equal a
    # scratch join over the fresh graph's provider postings.
    parents_view = maintained._parents_view
    assert parents_view is not None
    fresh_attacker_view = fresh.attacker_index()
    for signature, (full, half) in parents_view.snapshot().items():
        provider_sets = [
            fresh_attacker_view.static_provider_set(factor)
            for factor in signature
        ]
        scratch_full = frozenset.intersection(*provider_sets)
        assert full == scratch_full, (context, signature)
        assert half == frozenset.union(*provider_sets) - scratch_full, (
            context,
            signature,
        )
    # The maintained indexes must equal a fresh build field-for-field,
    # including posting order (queries alone could mask order drift).
    spliced_eco = maintained.ecosystem_index()
    fresh_eco = fresh.ecosystem_index()
    assert spliced_eco.names == fresh_eco.names, context
    assert spliced_eco.name_set == fresh_eco.name_set, context
    assert spliced_eco.holders_of == fresh_eco.holders_of, context
    assert spliced_eco.partial_holders == fresh_eco.partial_holders, context
    assert spliced_eco.partial_by_service == fresh_eco.partial_by_service
    assert spliced_eco.dossier_holders == fresh_eco.dossier_holders, context
    assert spliced_eco._dossier_ordered == fresh_eco._dossier_ordered
    assert spliced_eco._partial_union == fresh_eco._partial_union
    assert spliced_eco._unique_coverage == fresh_eco._unique_coverage
    # Reverse-dependency postings (the level engine's delta-BFS inputs).
    # Masks are compared through their decoded views: the spliced index
    # carries retired ids a fresh interner never assigned, so raw masks
    # legitimately differ while the name-level postings must not.
    assert sorted(spliced_eco.demanded_factors(), key=lambda f: f.name) == (
        sorted(fresh_eco.demanded_factors(), key=lambda f: f.name)
    ), context
    for factor in fresh_eco.demanded_factors():
        assert spliced_eco.demanders(factor) == fresh_eco.demanders(factor), (
            context,
            factor,
        )
    assert sorted(spliced_eco.linked_providers()) == sorted(
        fresh_eco.linked_providers()
    ), context
    for provider in fresh_eco.linked_providers():
        assert spliced_eco.linked_consumers_of(
            provider
        ) == fresh_eco.linked_consumers_of(provider), (context, provider)
    # Decoding views must agree with their own masks (spliced vs itself).
    for kind, ordered in spliced_eco.holders_of.items():
        assert spliced_eco.decode_mask_ordered(
            spliced_eco.holder_mask(kind)
        ) == ordered, (context, kind)
    spliced_view = maintained.attacker_index()
    fresh_view = fresh.attacker_index()
    for factor in CredentialFactor:
        if factor is CredentialFactor.LINKED_ACCOUNT:
            continue
        assert spliced_view.static_providers_ordered(
            factor
        ) == fresh_view.static_providers_ordered(factor), (context, factor)
    # The maintained closure cache -- kept warm by this call across every
    # step, so deltas hit a primed record and the next serve *resumes* the
    # fixpoint -- must be bit-for-bit the fresh graph's scratch run:
    # entries in order (rounds and provenance included), safe set, IAD.
    served = StrategyEngine(maintained).forward_closure()
    scratch = StrategyEngine(fresh).forward_closure()
    assert served.entries == scratch.entries, context
    assert served.safe == scratch.safe, context
    assert served.final_info == scratch.final_info, context


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_incremental_state_equals_rebuild_after_every_mutation(sequence):
    size = 12 + 4 * (sequence % 4)
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=size), seed=300 + sequence
    ).build_ecosystem()
    label = "baseline" if sequence % 2 == 0 else "se_database"
    session = DynamicAnalysisSession(
        ecosystem, attacker=_PROFILES[label]
    )
    stream = MutationStream(seed=sequence)
    _assert_matches_rebuild(session, None, (sequence, "initial"))
    for step in range(STEPS):
        mutation = stream.next_mutation(session.ecosystem)
        session.mutate(mutation)
        _assert_matches_rebuild(
            session, None, (sequence, step, mutation.describe())
        )
    assert session.version == STEPS


def test_multi_attacker_session_maintains_every_live_view():
    """One shared ecosystem index, several attacker views, all spliced."""
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=18), seed=99
    ).build_ecosystem()
    session = DynamicAnalysisSession(ecosystem, attackers=_PROFILES)
    assert (
        session.graph("baseline").ecosystem_index()
        is session.graph("se_database").ecosystem_index()
    )
    stream = MutationStream(seed=41)
    for step in range(STEPS):
        mutation = stream.next_mutation(session.ecosystem)
        session.mutate(mutation)
        for label in _PROFILES:
            _assert_matches_rebuild(
                session, label, (step, label, mutation.describe())
            )
    # The shared-index invariant survives the whole stream.
    assert (
        session.graph("baseline").ecosystem_index()
        is session.graph("se_database").ecosystem_index()
    )
