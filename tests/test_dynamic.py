"""Unit tests for the incremental ecosystem engine.

Covers the mutation model's delta semantics, the session's maintained
reports, the streaming weak-edge generator, the what-if rollout planner
(including its endpoint agreeing with the all-at-once defense
evaluation), the incremental measurement re-aggregation, churn-stream
determinism, and the catalog builder's explicit-rng reproducibility.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import AnalysisService, MeasurementQuery, RolloutQuery
from repro.catalog.builder import CatalogBuilder
from repro.catalog.spec import CatalogSpec
from repro.core.actfort import ActFort
from repro.core.tdg import TransformationDependencyGraph
from repro.defense.hardening import EmailHardening, SymmetryRepair
from repro.dynamic import (
    AddAuthPath,
    AddService,
    ApplyHardening,
    ChangeMasking,
    DynamicAnalysisSession,
    MutationStream,
    RemoveAuthPath,
    RemoveService,
    email_hardening_rollout,
    symmetry_repair_rollout,
)
from repro.model.account import AuthPurpose, MaskSpec
from repro.model.attacker import AttackerProfile
from repro.model.factors import CredentialFactor as CF
from repro.model.factors import PersonalInfoKind as PI
from repro.model.factors import Platform as PL

from tests.conftest import make_path, simple_profile


def small_ecosystem(size=16, seed=5):
    return CatalogBuilder(
        CatalogSpec(total_services=size), seed=seed
    ).build_ecosystem()


# ----------------------------------------------------------------------
# Mutation model / delta semantics
# ----------------------------------------------------------------------


class TestMutations:
    def test_add_service_delta_and_immutability(self):
        eco = small_ecosystem()
        before = tuple(eco.service_names)
        profile = simple_profile(name="newcomer")
        mutated, delta = eco.apply(AddService(profile=profile))
        assert tuple(eco.service_names) == before, "receiver mutated"
        assert mutated.service_names[-1] == "newcomer"
        assert delta.added == (profile,)
        assert not delta.removed and not delta.replaced
        assert not delta.is_noop
        assert "newcomer" in delta.describe()

    def test_add_duplicate_service_rejected(self):
        eco = small_ecosystem()
        existing = eco.services[0]
        with pytest.raises(ValueError):
            eco.apply(AddService(profile=existing))

    def test_remove_service_drops_accounts(self, identity):
        from repro.model.account import OnlineAccount
        from repro.model.ecosystem import Ecosystem

        a = simple_profile(name="a")
        b = simple_profile(name="b")
        eco = Ecosystem(
            [a, b],
            [
                OnlineAccount(service=a, identity=identity),
                OnlineAccount(service=b, identity=identity),
            ],
        )
        mutated, delta = eco.apply(RemoveService(service="a"))
        assert delta.removed == (a,)
        assert tuple(mutated.service_names) == ("b",)
        assert all(acc.service.name == "b" for acc in mutated.accounts)
        with pytest.raises(KeyError):
            eco.apply(RemoveService(service="ghost"))

    def test_add_auth_path_validates_service_and_duplicates(self):
        eco = small_ecosystem()
        name = eco.service_names[0]
        with pytest.raises(ValueError):
            AddAuthPath(
                service=name,
                path=make_path(
                    "other", PL.WEB, AuthPurpose.SIGN_IN, CF.PASSWORD
                ),
            )
        existing = eco.service(name).auth_paths[0]
        with pytest.raises(ValueError):
            eco.apply(AddAuthPath(service=name, path=existing))
        fresh = make_path(
            name, PL.WEB, AuthPurpose.PASSWORD_RESET, CF.EMAIL_ADDRESS,
            CF.EMAIL_CODE,
        )
        mutated, delta = eco.apply(AddAuthPath(service=name, path=fresh))
        (old, new), = delta.replaced
        assert old == eco.service(name)
        assert fresh in new.auth_paths and fresh not in old.auth_paths

    def test_remove_auth_path_requires_presence(self):
        eco = small_ecosystem()
        name = eco.service_names[0]
        path = eco.service(name).auth_paths[-1]
        mutated, delta = eco.apply(RemoveAuthPath(service=name, path=path))
        assert path not in mutated.service(name).auth_paths
        with pytest.raises(ValueError):
            mutated.apply(RemoveAuthPath(service=name, path=path))

    def test_change_masking_noop_delta(self):
        eco = small_ecosystem()
        # Removing a rule that was never set leaves the profile identical.
        name = next(
            p.name
            for p in eco
            if (PL.WEB, PI.CITIZEN_ID) not in p.mask_specs
        )
        mutated, delta = eco.apply(
            ChangeMasking(
                service=name, platform=PL.WEB, kind=PI.CITIZEN_ID, spec=None
            )
        )
        assert delta.is_noop
        assert mutated is eco
        assert delta.describe() == "(no-op)"

    def test_change_masking_explicit_rule_produces_delta(self):
        eco = small_ecosystem()
        name = eco.service_names[0]
        mutated, delta = eco.apply(
            ChangeMasking(
                service=name,
                platform=PL.WEB,
                kind=PI.CITIZEN_ID,
                spec=MaskSpec(reveal_suffix=4),
            )
        )
        (old, new), = delta.replaced
        assert new.mask_for(PL.WEB, PI.CITIZEN_ID) == MaskSpec(reveal_suffix=4)
        assert mutated.service(name) == new

    def test_apply_hardening_restricted_scope(self):
        eco = small_ecosystem(size=24)
        hardening = EmailHardening()
        targets = hardening.targets(eco)
        assert targets, "catalog should contain hardenable email providers"
        first = targets[0]
        mutated, delta = eco.apply(
            ApplyHardening(transform=hardening, services=(first,))
        )
        assert delta.replaced_names == {first}
        # Re-applying to the already-hardened service is a no-op.
        again, delta2 = mutated.apply(
            ApplyHardening(transform=hardening, services=(first,))
        )
        assert delta2.is_noop and again is mutated


# ----------------------------------------------------------------------
# Session layer
# ----------------------------------------------------------------------


class TestSession:
    def test_history_version_and_query(self):
        session = DynamicAnalysisSession(small_ecosystem())
        assert session.version == 0
        profile = simple_profile(name="latecomer")
        delta = session.mutate(AddService(profile=profile))
        assert session.version == 1
        assert session.history == (delta,)
        assert "latecomer" in session.ecosystem
        assert session.query("is_direct", "latecomer")
        assert session.query(lambda g: len(g.nodes)) == len(session)

    def test_maintained_reports_track_mutations(self):
        session = DynamicAnalysisSession(small_ecosystem())
        name = session.ecosystem.service_names[0]
        before = session.auth_reports[name]
        path = make_path(
            name, PL.WEB, AuthPurpose.PASSWORD_RESET, CF.EMAIL_ADDRESS,
            CF.EMAIL_CODE,
        )
        session.mutate(AddAuthPath(service=name, path=path))
        after = session.auth_reports[name]
        assert len(after.paths()) == len(before.paths()) + 1
        session.mutate(RemoveService(service=name))
        assert name not in session.auth_reports
        assert name not in session.collection_reports

    def test_noop_mutation_counts_but_touches_nothing(self):
        session = DynamicAnalysisSession(small_ecosystem())
        graph = session.graph()
        graph.level_fractions(PL.WEB)
        coverage_entries = dict(graph._coverage_cache)
        name = next(
            p.name
            for p in session.ecosystem
            if (PL.WEB, PI.CITIZEN_ID) not in p.mask_specs
        )
        delta = session.mutate(
            ChangeMasking(
                service=name, platform=PL.WEB, kind=PI.CITIZEN_ID, spec=None
            )
        )
        assert delta.is_noop
        assert session.version == 1
        assert graph._coverage_cache == coverage_entries
        engine = graph.levels_engine()
        table = engine._levels[PL.WEB]
        assert table.entries, "no-op must not drop the level memo"
        assert not table.stale and not table.moved, (
            "no-op must not mark level entries for reclassification"
        )
        assert not engine._pending_touched, "no-op must not reach the engine"

    def test_attacker_and_attackers_are_exclusive(self):
        with pytest.raises(ValueError):
            DynamicAnalysisSession(
                small_ecosystem(),
                attacker=AttackerProfile.baseline(),
                attackers={"x": AttackerProfile.baseline()},
            )
        with pytest.raises(ValueError):
            DynamicAnalysisSession(small_ecosystem(), attackers={})


# ----------------------------------------------------------------------
# Streaming weak edges
# ----------------------------------------------------------------------


class TestIterWeakEdges:
    def test_matches_weak_edges_without_couple_materialization(self):
        graph = TransformationDependencyGraph.from_ecosystem(
            small_ecosystem(size=24, seed=9), AttackerProfile.baseline()
        )
        streamed = list(graph.iter_weak_edges())
        assert len(streamed) == len(set(streamed)), "edges must be deduped"
        assert not graph._couples_cache, (
            "streaming must not populate the per-service Couple File memo"
        )
        assert frozenset(streamed) == graph.weak_edges()

    def test_reuses_memoized_couples_when_present(self):
        graph = TransformationDependencyGraph.from_ecosystem(
            small_ecosystem(size=20, seed=11), AttackerProfile.baseline()
        )
        reference = graph.weak_edges()
        for node in graph.nodes:
            graph.couples(node.service)
        assert graph._couples_cache
        assert frozenset(graph.iter_weak_edges()) == reference


# ----------------------------------------------------------------------
# Rollout planner
# ----------------------------------------------------------------------


class TestRollout:
    def test_trajectory_shape_and_final_state_matches_full_apply(self):
        eco = small_ecosystem(size=24, seed=13)
        steps = email_hardening_rollout(eco)
        assert steps, "expected at least one email provider to harden"
        trajectory = AnalysisService(eco).execute(
            RolloutQuery(steps=steps, include_weak=True)
        )
        assert len(trajectory.points) == len(steps) + 1
        assert trajectory.baseline.step == "baseline"
        assert trajectory.baseline.weak_edges is not None
        # The endpoint must agree exactly with the one-shot countermeasure.
        hardened = EmailHardening().apply(eco)
        oracle = ActFort.from_ecosystem(hardened).tdg()
        for platform in (PL.WEB, PL.MOBILE):
            assert trajectory.final.level_fractions[
                platform
            ] == oracle.level_fractions(platform)
        assert trajectory.final.strong_edges == len(oracle.strong_edges())
        assert trajectory.final.weak_edges == len(oracle.weak_edges())
        series = trajectory.series(
            PL.WEB, next(iter(trajectory.baseline.level_fractions[PL.WEB]))
        )
        assert len(series) == len(trajectory.points)
        assert len(trajectory.rows()) == len(trajectory.points)

    def test_symmetry_rollout_groups_by_domain(self):
        eco = small_ecosystem(size=28, seed=17)
        steps = symmetry_repair_rollout(eco)
        repair = SymmetryRepair()
        stepped_domains = [step.label.split(":", 1)[1] for step in steps]
        assert len(stepped_domains) == len(set(stepped_domains))
        expected = {
            eco.service(name).domain for name in repair.targets(eco)
        }
        assert set(stepped_domains) == expected

    def test_evaluate_rollout_default_plan(self):
        eco = small_ecosystem(size=20, seed=19)
        trajectory = AnalysisService(eco).execute(RolloutQuery())
        assert trajectory.points[0].step == "baseline"
        assert len(trajectory.points) >= 2
        # Hardening only ever adds factors, so the web SAFE fraction is
        # monotone along the default plan.
        from repro.core.tdg import DependencyLevel

        safe = trajectory.series(PL.WEB, DependencyLevel.SAFE)
        assert all(b >= a - 1e-12 for a, b in zip(safe, safe[1:]))


# ----------------------------------------------------------------------
# Incremental measurement re-aggregation
# ----------------------------------------------------------------------


class TestMeasurementSession:
    def test_run_session_equals_from_scratch_measurement(self):
        session = DynamicAnalysisSession(small_ecosystem(size=20, seed=23))
        stream = MutationStream(seed=29)
        for _ in range(6):
            session.mutate(stream.next_mutation(session.ecosystem))
        incremental = AnalysisService.from_session(session).execute(
            MeasurementQuery()
        )
        oracle = AnalysisService(session.ecosystem).execute(
            MeasurementQuery()
        )
        assert incremental == oracle


# ----------------------------------------------------------------------
# Churn stream + builder reproducibility
# ----------------------------------------------------------------------


class TestReproducibility:
    def test_mutation_stream_replays_bit_for_bit(self):
        eco = small_ecosystem(size=18, seed=31)
        first = MutationStream(seed=37).take(eco, 25)
        second = MutationStream(seed=37).take(eco, 25)
        assert first == second
        assert first != MutationStream(seed=38).take(eco, 25)

    def test_mutation_stream_is_hash_seed_independent(self):
        # Frozenset iteration order follows the process hash seed, so any
        # draw or tie-break over one (e.g. ``profile.platforms``) would
        # make "seeded" churn differ from process to process.  The TDG
        # nodes' ``pia_partial`` key order is pinned the same way.
        script = (
            "import json\n"
            "from repro.catalog.builder import CatalogBuilder\n"
            "from repro.catalog.spec import CatalogSpec\n"
            "from repro.core.tdg import TransformationDependencyGraph\n"
            "from repro.dynamic import MutationStream\n"
            "from repro.utils.serialization import (\n"
            "    mutation_to_dict, service_profile_to_dict)\n"
            "eco = CatalogBuilder(CatalogSpec(total_services=60), seed=31)"
            ".build_ecosystem()\n"
            "stream = MutationStream(seed=37)\n"
            "for _ in range(120):\n"
            "    mutation = stream.next_mutation(eco)\n"
            "    eco, _delta = eco.apply(mutation)\n"
            "    print(json.dumps(mutation_to_dict(mutation),"
            " sort_keys=True))\n"
            "for profile in eco:\n"
            "    print(json.dumps(service_profile_to_dict(profile), "
            "sort_keys=True))\n"
            "    node = TransformationDependencyGraph.node_from_profile("
            "profile)\n"
            "    print(json.dumps([kind.value for kind in node.pia_partial]))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(src)
            env["PYTHONHASHSEED"] = hash_seed
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                env=env,
                timeout=300,
                check=True,
            )
            outputs.append(completed.stdout)
        assert outputs[0].count(b"\n") > 120
        assert json.loads(outputs[0].splitlines()[0])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_builder_is_idempotent_run_to_run(self):
        builder = CatalogBuilder(CatalogSpec(total_services=40), seed=41)
        assert tuple(builder.build_ecosystem().services) == tuple(
            builder.build_ecosystem().services
        )

    def test_synthesize_service_threads_explicit_rng(self):
        import random

        builder = CatalogBuilder(CatalogSpec(total_services=10), seed=43)
        domain = builder.spec.domains[0]
        one = builder.synthesize_service(0, domain, random.Random(7))
        two = builder.synthesize_service(0, domain, random.Random(7))
        assert one == two
        named = builder.synthesize_service(
            1, domain, random.Random(7), name="custom_name"
        )
        assert named.name == "custom_name"
