"""Tests for the countermeasures and their evaluation."""

import pytest

from repro.api import AnalysisService, DefenseEvalQuery
from repro.core import ActFort
from repro.core.tdg import TransformationDependencyGraph
from repro.defense.builtin_auth import BuiltinAuthService, BuiltinAuthUpgrade
from repro.defense.evaluation import outcome_rows
from repro.defense.hardening import EmailHardening, SymmetryRepair
from repro.defense.masking_policy import UnifiedMaskingPolicy
from repro.model.attacker import AttackerProfile
from repro.model.factors import CredentialFactor as CF
from repro.model.factors import PersonalInfoKind as PI
from repro.model.factors import Platform as PL


class TestUnifiedMasking:
    def test_ctrip_citizen_id_masked_after_policy(self, default_ecosystem):
        hardened = UnifiedMaskingPolicy().apply(default_ecosystem)
        ctrip = hardened.service("ctrip")
        spec = ctrip.mask_for(PL.WEB, PI.CITIZEN_ID)
        assert len(spec.revealed_positions(18)) == 4

    def test_combining_attack_dies(self, default_ecosystem):
        """After unification every provider reveals the same positions, so
        pooled views never reconstruct a full value."""
        hardened = UnifiedMaskingPolicy().apply(default_ecosystem)
        tdg = TransformationDependencyGraph.from_ecosystem(
            hardened, AttackerProfile.baseline()
        )
        union = frozenset()
        for node in tdg.nodes:
            union |= node.pia_partial.get(PI.BANKCARD_NUMBER, frozenset())
        assert len(union) < 16
        # And no node exposes a complete citizen ID anymore.
        assert all(PI.CITIZEN_ID not in node.pia for node in tdg.nodes)

    def test_baseline_untouched(self, default_ecosystem):
        UnifiedMaskingPolicy().apply(default_ecosystem)
        ctrip = default_ecosystem.service("ctrip")
        assert len(ctrip.mask_for(PL.WEB, PI.CITIZEN_ID).revealed_positions(18)) == 18


class TestEmailHardening:
    def test_email_services_no_longer_sms_only(self, default_ecosystem):
        hardened = EmailHardening().apply(default_ecosystem)
        for service in hardened.in_domain("email"):
            assert not service.is_fringe, service.name

    def test_other_domains_untouched(self, default_ecosystem):
        hardened = EmailHardening().apply(default_ecosystem)
        assert hardened.service("ctrip") == default_ecosystem.service("ctrip")

    def test_email_chains_die_in_seed_ecosystem(self):
        """All seed email providers are SMS-only resettable; hardening them
        removes every path into PayPal (which demands an email code)."""
        from repro.catalog.seeds import seed_profiles
        from repro.model.ecosystem import Ecosystem

        baseline = Ecosystem(seed_profiles())
        assert ActFort.from_ecosystem(baseline).attack_chain("paypal")
        hardened = EmailHardening().apply(baseline)
        assert ActFort.from_ecosystem(hardened).attack_chain("paypal") is None

    def test_surviving_email_providers_fall_via_non_sms_paths_only(
        self, default_ecosystem
    ):
        """In the full catalog some email services keep an info-path reset;
        hardening the SMS-only path alone leaves that residual risk --
        visible, not hidden, in the evaluation."""
        hardened = EmailHardening().apply(default_ecosystem)
        actfort = ActFort.from_ecosystem(hardened)
        closure = actfort.potential_victims()
        for entry in closure.entries:
            node = actfort.tdg().node(entry.service)
            if node.domain != "email":
                continue
            assert not entry.path.is_sms_only


class TestSymmetryRepair:
    def test_gome_masks_aligned_to_strictest(self, default_ecosystem):
        repaired = SymmetryRepair().apply(default_ecosystem)
        gome = repaired.service("gome")
        web = gome.mask_for(PL.WEB, PI.CITIZEN_ID).revealed_positions(18)
        mobile = gome.mask_for(PL.MOBILE, PI.CITIZEN_ID).revealed_positions(18)
        assert web == mobile
        assert len(web) <= 10

    def test_no_service_gains_paths(self, default_ecosystem):
        repaired = SymmetryRepair().apply(default_ecosystem)
        for service in repaired:
            baseline = default_ecosystem.service(service.name)
            assert set(service.auth_paths) <= set(baseline.auth_paths)


class TestBuiltinAuthService:
    def test_full_protocol_roundtrip(self):
        service = BuiltinAuthService()
        service.register("u1", "device-1")
        challenge = service.request_login("alipay", "u1", "Hangzhou")
        pending = service.pending_for("u1", "device-1")
        assert len(pending) == 1
        assert pending[0].location_hint == "Hangzhou"
        service.approve(challenge, "device-1")
        assert service.verify(challenge)

    def test_attacker_device_sees_no_push(self):
        service = BuiltinAuthService()
        service.register("u1", "device-1")
        service.request_login("alipay", "u1")
        assert service.pending_for("u1", "evil-device") == ()

    def test_attacker_device_cannot_approve(self):
        service = BuiltinAuthService()
        service.register("u1", "device-1")
        challenge = service.request_login("alipay", "u1")
        with pytest.raises(PermissionError):
            service.approve(challenge, "evil-device")
        assert not service.verify(challenge)

    def test_rejection_fails_verification(self):
        service = BuiltinAuthService()
        service.register("u1", "device-1")
        challenge = service.request_login("alipay", "u1")
        service.approve(challenge, "device-1", approve=False)
        assert not service.verify(challenge)

    def test_unregistered_user_rejected(self):
        service = BuiltinAuthService()
        with pytest.raises(KeyError):
            service.request_login("alipay", "ghost")


class TestBuiltinAuthUpgrade:
    def test_sms_replaced_by_trusted_device(self, default_ecosystem):
        upgraded = BuiltinAuthUpgrade().apply(default_ecosystem)
        for service in upgraded:
            for path in service.auth_paths:
                assert CF.SMS_CODE not in path.factors

    def test_partial_adoption(self, default_ecosystem):
        upgraded = BuiltinAuthUpgrade(adoption=0.5).apply(default_ecosystem)
        still_sms = sum(
            1
            for service in upgraded
            if any(
                CF.SMS_CODE in path.factors for path in service.auth_paths
            )
        )
        assert 0 < still_sms < len(upgraded)

    def test_invalid_adoption_rejected(self):
        with pytest.raises(ValueError):
            BuiltinAuthUpgrade(adoption=1.5)


def _ablation(ecosystem, attacker=None):
    """One attacker's ablation row: baseline, each defense, combined."""
    service = AnalysisService(ecosystem, attacker=attacker)
    return service.execute(DefenseEvalQuery()).row(service.primary_attacker)


class TestDefenseEvaluation:
    @pytest.fixture(scope="class")
    def outcomes(self, default_ecosystem):
        return _ablation(default_ecosystem)

    def test_labels(self, outcomes):
        labels = [o.label for o in outcomes]
        assert labels[0] == "baseline"
        assert labels[-1] == "all_combined"
        assert "builtin_auth" in labels

    def test_every_defense_weakly_shrinks_pav(self, outcomes):
        baseline = outcomes[0].pav_size
        for outcome in outcomes[1:]:
            assert outcome.pav_size <= baseline, outcome.label

    def test_builtin_auth_zeroes_attack_surface(self, outcomes):
        builtin = next(o for o in outcomes if o.label == "builtin_auth")
        assert builtin.pav_size == 0
        for platform in (PL.WEB, PL.MOBILE):
            assert builtin.direct_fraction[platform] == 0.0
            assert builtin.safe_fraction[platform] == 1.0

    def test_email_hardening_shrinks_pav_strictly(self, outcomes):
        baseline = outcomes[0].pav_size
        email = next(o for o in outcomes if o.label == "email_hardening")
        assert email.pav_size < baseline

    def test_masking_increases_safe_services(self, outcomes):
        baseline = next(o for o in outcomes if o.label == "baseline")
        masking = next(o for o in outcomes if o.label == "unified_masking")
        assert (
            masking.safe_fraction[PL.WEB] >= baseline.safe_fraction[PL.WEB]
        )

    def test_outcome_rows_render(self, outcomes):
        rows = outcome_rows(outcomes)
        assert len(rows) == len(outcomes)
        assert rows[0][0] == "baseline"

    def test_evaluate_attackers_matches_per_attacker_evaluate(
        self, default_ecosystem, outcomes
    ):
        """The shared-index attacker grid must equal per-attacker sweeps:
        same variant labels in the same order, same measured outcomes."""
        profiles = {
            "baseline": AttackerProfile.baseline(),
            "se_database": AttackerProfile.with_se_database(),
        }
        result = AnalysisService(default_ecosystem, attackers=profiles).execute(
            DefenseEvalQuery(attackers=tuple(profiles))
        )
        grid = {label: result.row(label) for label in profiles}
        assert set(grid) == set(profiles)
        assert [o.label for o in grid["baseline"]] == [
            o.label for o in outcomes
        ]
        for batched, solo in zip(grid["baseline"], outcomes):
            assert batched.pav_size == solo.pav_size
            assert batched.dependency == solo.dependency
        se_solo = _ablation(default_ecosystem, profiles["se_database"])
        for batched, solo in zip(grid["se_database"], se_solo):
            assert batched.label == solo.label
            assert batched.pav_size == solo.pav_size
            assert batched.dependency == solo.dependency
