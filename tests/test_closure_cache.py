"""The graph-level forward-closure cache and its delta revalidation.

``StrategyEngine.forward_closure`` memoizes on the graph; under mutation
deltas :meth:`~repro.core.tdg.TransformationDependencyGraph.revalidate_closures`
keeps every entry the delta cannot reach (safe services are inert to the
fixpoint) and drops the rest.  The differential here locks the cached
answers against from-scratch rebuilds after *every* mutation of seeded
streams -- including removals and additions, the patch path -- and the
handcrafted cases pin the survive/invalidate split itself.  Scratch and
resumed closures share the strategy engine's per-round provenance tables,
so both are also checked against the table-free scan oracle
(:meth:`~repro.core.reference.ReferenceTDG.forward_closure`).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.core.actfort import ActFort
from repro.core.reference import ReferenceTDG
from repro.core.strategy import StrategyEngine
from repro.core.tdg import TransformationDependencyGraph
from repro.dynamic import DynamicAnalysisSession, MutationStream
from repro.dynamic.events import AddAuthPath, AddService, ChangeMasking
from repro.model.attacker import (
    BASELINE_CAPABILITIES,
    AttackerCapability,
    AttackerProfile,
)
from repro.model.account import (
    AuthPath,
    AuthPurpose,
    MaskSpec,
    ServiceProfile,
)
from repro.model.ecosystem import Ecosystem
from repro.model.factors import CredentialFactor as CF
from repro.model.factors import PersonalInfoKind as PI
from repro.model.factors import Platform as PL


def _path(service, purpose, *factors):
    return AuthPath(
        service=service,
        platform=PL.WEB,
        purpose=purpose,
        factors=frozenset(factors),
    )


def _direct_service(name, exposed=(PI.REAL_NAME,)):
    """Falls to the baseline attacker (SMS-only reset)."""
    return ServiceProfile(
        name=name,
        domain="media",
        auth_paths=(
            _path(name, AuthPurpose.PASSWORD_RESET, CF.CELLPHONE_NUMBER, CF.SMS_CODE),
        ),
        exposed_info={PL.WEB: frozenset(exposed)},
    )


def _safe_service(name):
    """Unchainable: its only path demands the current password."""
    return ServiceProfile(
        name=name,
        domain="fintech",
        auth_paths=(
            _path(name, AuthPurpose.SIGN_IN, CF.USERNAME, CF.PASSWORD),
        ),
        exposed_info={PL.WEB: frozenset({PI.REAL_NAME})},
    )


def _assert_same_closure(served, expected, label):
    assert served.entries == expected.entries, label
    assert [e.round for e in served.entries] == [
        e.round for e in expected.entries
    ], label
    assert [e.factor_sources for e in served.entries] == [
        e.factor_sources for e in expected.entries
    ], label
    assert served.safe == expected.safe, label
    assert served.final_info == expected.final_info, label


@pytest.mark.parametrize("seed", (4001, 4002, 4003))
def test_cached_closure_equals_rebuild_after_every_mutation(seed):
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=30), seed=seed
    ).build_ecosystem()
    session = DynamicAnalysisSession(ecosystem)
    stream = MutationStream(seed=seed, min_services=10)
    session.forward_closure()  # prime the cache
    for _ in range(10):
        session.mutate(stream.next_mutation(session.ecosystem))
        served = session.forward_closure()
        rebuilt = StrategyEngine(
            ActFort.from_ecosystem(session.ecosystem).tdg()
        ).forward_closure()
        assert served.entries == rebuilt.entries
        assert served.safe == rebuilt.safe
        assert served.final_info == rebuilt.final_info


def test_repeated_closure_calls_share_one_computation():
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=25), seed=5
    ).build_ecosystem()
    actfort = ActFort.from_ecosystem(ecosystem)
    tdg = actfort.tdg()
    first = actfort.potential_victims()
    # A second engine over the same graph hits the graph-level cache --
    # this is what stops insights.py/actfort.py re-running the fixpoint.
    second = StrategyEngine(tdg).forward_closure()
    assert second is first
    stats = tdg.closure_cache_stats()
    assert stats["computes"] == 1 and stats["hits"] == 1


def test_delta_that_never_reaches_the_support_set_keeps_the_cache():
    ecosystem = Ecosystem(
        [
            _direct_service("mail", exposed=(PI.REAL_NAME, PI.CITIZEN_ID)),
            _direct_service("shop"),
            _safe_service("bank"),
        ]
    )
    session = DynamicAnalysisSession(ecosystem)
    closure = session.forward_closure()
    assert closure.compromised == frozenset({"mail", "shop"})
    assert "bank" in closure.safe

    # Masking churn on the safe, unchainable service: inert to the PAV.
    session.mutate(
        ChangeMasking(
            service="bank",
            platform=PL.WEB,
            kind=PI.CITIZEN_ID,
            spec=MaskSpec(reveal_prefix=4),
        )
    )
    assert session.forward_closure() is closure
    assert session.graph().closure_cache_stats()["computes"] == 1

    # A new service that stays safe patches the safe set without a
    # recompute; the compromised entries are served verbatim.
    session.mutate(AddService(profile=_safe_service("vault")))
    patched = session.forward_closure()
    assert patched.entries == closure.entries
    assert patched.safe == frozenset({"bank", "vault"})
    assert session.graph().closure_cache_stats()["computes"] == 1


def test_delta_reaching_the_support_set_recomputes():
    ecosystem = Ecosystem(
        [
            _direct_service("mail", exposed=(PI.REAL_NAME, PI.CITIZEN_ID)),
            _safe_service("bank"),
        ]
    )
    session = DynamicAnalysisSession(ecosystem)
    before = session.forward_closure()
    assert before.compromised == frozenset({"mail"})

    # The safe service grows an info-path reset that the harvested
    # citizen ID satisfies: it must now fall, so the cache recomputes.
    session.mutate(
        AddAuthPath(
            service="bank",
            path=_path(
                "bank",
                AuthPurpose.PASSWORD_RESET,
                CF.CELLPHONE_NUMBER,
                CF.SMS_CODE,
                CF.CITIZEN_ID,
            ),
        )
    )
    after = session.forward_closure()
    assert after is not before
    assert after.compromised == frozenset({"mail", "bank"})
    rebuilt = StrategyEngine(
        ActFort.from_ecosystem(session.ecosystem).tdg()
    ).forward_closure()
    assert after.entries == rebuilt.entries
    assert after.safe == rebuilt.safe


def test_cache_evicts_oldest_key_first_beyond_the_limit():
    ecosystem = Ecosystem([_direct_service("mail"), _safe_service("bank")])
    tdg = ActFort.from_ecosystem(ecosystem).tdg()
    engine = StrategyEngine(tdg)
    limit = TransformationDependencyGraph._CLOSURE_CACHE_LIMIT
    # Each pinned provider is a distinct cache key; overflow the bound.
    for i in range(limit + 6):
        engine.forward_closure(email_provider=f"mail{i}")
    stats = tdg.closure_cache_stats()
    assert stats["entries"] == limit
    assert stats["computes"] == limit + 6
    assert stats["hits"] == 0
    # The newest key is still cached...
    engine.forward_closure(email_provider=f"mail{limit + 5}")
    stats = tdg.closure_cache_stats()
    assert stats["hits"] == 1 and stats["computes"] == limit + 6
    # ...while the oldest was evicted FIFO and recomputes.
    engine.forward_closure(email_provider="mail0")
    stats = tdg.closure_cache_stats()
    assert stats["computes"] == limit + 7
    assert stats["entries"] == limit
    # Re-serving a key already present must not evict anything else.
    engine.forward_closure(email_provider="mail0")
    assert tdg.closure_cache_stats()["hits"] == 2
    assert tdg.closure_cache_stats()["entries"] == limit


def test_stats_count_hits_computes_resumes_and_revalidations():
    ecosystem = Ecosystem(
        [
            _direct_service("mail", exposed=(PI.REAL_NAME, PI.CITIZEN_ID)),
            _safe_service("bank"),
        ]
    )
    session = DynamicAnalysisSession(ecosystem)
    graph = session.graph()
    closure = session.forward_closure()
    assert graph.closure_cache_stats() == {
        "hits": 0,
        "computes": 1,
        "resumes": 0,
        "revalidations": 0,
        "entries": 1,
    }
    assert session.forward_closure() is closure
    assert graph.closure_cache_stats()["hits"] == 1

    # Inert mutation: the record stays clean, the next serve is a hit.
    session.mutate(
        ChangeMasking(
            service="bank",
            platform=PL.WEB,
            kind=PI.CITIZEN_ID,
            spec=MaskSpec(reveal_prefix=4),
        )
    )
    assert graph.closure_cache_stats()["revalidations"] == 0
    assert session.forward_closure() is closure
    assert graph.closure_cache_stats()["hits"] == 2

    # Reaching mutation: the record is marked dirty (one revalidation),
    # and the next serve resumes the fixpoint instead of recomputing.
    session.mutate(
        AddAuthPath(
            service="bank",
            path=_path(
                "bank",
                AuthPurpose.PASSWORD_RESET,
                CF.CELLPHONE_NUMBER,
                CF.SMS_CODE,
                CF.CITIZEN_ID,
            ),
        )
    )
    assert graph.closure_cache_stats()["revalidations"] == 1
    assert session.forward_closure().compromised == frozenset(
        {"mail", "bank"}
    )
    assert graph.closure_cache_stats() == {
        "hits": 2,
        "computes": 1,
        "resumes": 1,
        "revalidations": 1,
        "entries": 1,
    }


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_incremental_closure_matches_scratch_on_random_sequences(data):
    """Property differential: after every mutation of a random sequence,
    the resumed closure must be bit-for-bit the scratch fixpoint -- entry
    order, rounds, provenance, safe set and final IAD -- for both the
    unseeded key and a breach-data key kept warm across the stream."""
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    steps = data.draw(st.integers(min_value=1, max_value=6))
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=14), seed=seed
    ).build_ecosystem()
    session = DynamicAnalysisSession(ecosystem)
    stream = MutationStream(seed=seed ^ 0x5A5A, min_services=6)
    session.forward_closure()
    session.forward_closure(extra_info=[PI.CITIZEN_ID])
    for _ in range(steps):
        session.mutate(stream.next_mutation(session.ecosystem))
        scratch_engine = StrategyEngine(
            ActFort.from_ecosystem(session.ecosystem).tdg()
        )
        for kwargs in ({}, {"extra_info": [PI.CITIZEN_ID]}):
            _assert_same_closure(
                session.forward_closure(**kwargs),
                scratch_engine.forward_closure(**kwargs),
                kwargs,
            )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_scratch_and_resumed_closures_match_the_scan_oracle(data):
    """Oracle differential: the scan oracle re-derives every factor source
    from the node postings, so a provenance-table bug that scratch and
    resumed runs would share still shows -- for the unseeded key, a
    breach-data key and a pinned email provider, under the baseline
    attacker and one that also social-engineers customer service (its
    dossier comes only from compromised accounts, so the customer-service
    source names a holder), after every mutation."""
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    steps = data.draw(st.integers(min_value=1, max_value=5))
    pinned = data.draw(
        st.sampled_from(("gmail", "netease_mail", "outlook", "aliyun_mail"))
    )
    attackers = {
        "baseline": AttackerProfile.baseline(),
        "social": AttackerProfile(
            capabilities=BASELINE_CAPABILITIES
            | {AttackerCapability.SOCIAL_ENGINEERING},
            known_info=frozenset({PI.CELLPHONE_NUMBER}),
        ),
    }
    keys = (
        {},
        {"extra_info": [PI.CITIZEN_ID]},
        {"email_provider": pinned},
    )
    # 40 services is the smallest catalog tier whose closures use
    # Insight-4 combining sources.
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=40), seed=seed
    ).build_ecosystem()
    session = DynamicAnalysisSession(ecosystem, attackers=attackers)
    stream = MutationStream(seed=seed ^ 0xA5A5, min_services=6)
    for label in attackers:
        for kwargs in keys:
            session.forward_closure(attacker=label, **kwargs)
    for _ in range(steps):
        session.mutate(stream.next_mutation(session.ecosystem))
        for label, profile in attackers.items():
            scratch_graph = ActFort.from_ecosystem(
                session.ecosystem, profile
            ).tdg()
            scratch_engine = StrategyEngine(scratch_graph)
            oracle = ReferenceTDG(scratch_graph.nodes, profile)
            for kwargs in keys:
                expected = oracle.forward_closure(**kwargs)
                where = (label, kwargs)
                _assert_same_closure(
                    session.forward_closure(attacker=label, **kwargs),
                    expected,
                    where,
                )
                _assert_same_closure(
                    scratch_engine.forward_closure(**kwargs), expected, where
                )


def test_pinned_closure_is_revalidated_under_its_provider():
    """A record cached under ``email_provider=X`` is revalidated with the
    pin: a new email-code reset reaches it only through X (X exposes no
    mailbox, so the unpinned closure cannot source the code)."""
    ecosystem = Ecosystem([_direct_service("mail_x"), _safe_service("bank")])
    session = DynamicAnalysisSession(ecosystem)
    graph = session.graph()
    unpinned = session.forward_closure()
    pinned = session.forward_closure(email_provider="mail_x")
    assert unpinned.compromised == pinned.compromised == frozenset({"mail_x"})

    session.mutate(
        AddAuthPath(
            service="bank",
            path=_path(
                "bank",
                AuthPurpose.PASSWORD_RESET,
                CF.CELLPHONE_NUMBER,
                CF.EMAIL_CODE,
            ),
        )
    )
    # Only the pinned record was reached and marked dirty.
    assert graph.closure_cache_stats()["revalidations"] == 1
    assert session.forward_closure() is unpinned
    resumed = session.forward_closure(email_provider="mail_x")
    assert graph.closure_cache_stats()["resumes"] == 1
    assert resumed.entry("bank").factor_sources == {CF.EMAIL_CODE: "mail_x"}
    oracle = ReferenceTDG(graph.nodes, graph.attacker)
    _assert_same_closure(
        resumed, oracle.forward_closure(email_provider="mail_x"), "pinned"
    )


class _CountingViews(dict):
    """``partial_by_service`` stand-in that counts factor lookups."""

    def __init__(self, views, counts):
        super().__init__(views)
        self.counts = counts

    def __getitem__(self, factor):
        self.counts[factor] += 1
        return super().__getitem__(factor)


def test_resume_reads_each_posting_once_per_round_at_402(monkeypatch):
    """Machine-independent guard for the per-round provenance tables: a
    resumed closure at 402 services looks up each info kind's holders and
    each maskable factor's masked views at most once per round, however
    many takeover tests the round runs."""
    ecosystem = CatalogBuilder(
        CatalogSpec(total_services=402), seed=2021
    ).build_ecosystem()
    session = DynamicAnalysisSession(ecosystem)
    graph = session.graph()
    session.forward_closure()
    stream = MutationStream(seed=2021)
    for _ in range(60):
        marked = graph.closure_cache_stats()["revalidations"]
        session.mutate(stream.next_mutation(session.ecosystem))
        if graph.closure_cache_stats()["revalidations"] > marked:
            break
        session.forward_closure()
    else:
        pytest.fail("no support-reaching mutation in 60 draws")

    index = graph.ecosystem_index()
    holder_set = index.holder_set
    holder_lookups: Counter = Counter()
    view_lookups: Counter = Counter()

    def counting_holder_set(kind):
        holder_lookups[kind] += 1
        return holder_set(kind)

    monkeypatch.setattr(index, "holder_set", counting_holder_set)
    monkeypatch.setattr(
        index,
        "partial_by_service",
        _CountingViews(index.partial_by_service, view_lookups),
    )
    resumes = graph.closure_cache_stats()["resumes"]
    closure = session.forward_closure()
    assert graph.closure_cache_stats()["resumes"] == resumes + 1
    rounds = max(entry.round for entry in closure.entries) + 1
    assert holder_lookups, "the resume sourced no factor from a holder"
    assert max(holder_lookups.values()) <= rounds, holder_lookups
    assert max(view_lookups.values(), default=0) <= rounds, view_lookups
