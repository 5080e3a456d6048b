"""Applying and evaluating the Section VII countermeasures.

Runs the defense ablation (baseline vs each countermeasure vs all
combined), then demonstrates the Fig. 8 built-in authentication protocol at
the message level: the enrolled device approves; the attacker's device sees
nothing and cannot approve.

Run:  python examples/defense_hardening.py
"""

from repro import AnalysisService, build_default_ecosystem
from repro.api import DefenseEvalQuery
from repro.defense import BuiltinAuthService
from repro.defense.evaluation import outcome_rows
from repro.utils.tables import format_table


def main() -> None:
    ecosystem = build_default_ecosystem()

    print("evaluating countermeasures over the 201-service catalog "
          "(this re-measures the ecosystem six times)...\n")
    service = AnalysisService(ecosystem)
    outcomes = service.execute(DefenseEvalQuery()).row(
        service.primary_attacker
    )
    print(
        format_table(
            (
                "defense",
                "PAV",
                "web direct",
                "web safe",
                "mobile direct",
                "mobile safe",
            ),
            outcome_rows(outcomes),
            title="Section VII -- countermeasure ablation",
        )
    )

    # --- Fig. 8: the built-in OS authentication protocol ---------------
    print("\nFig. 8 built-in authentication walkthrough:")
    auth = BuiltinAuthService()
    auth.register("victim", "victim-phone")
    print("  (1) victim registers their device with the OS auth server")
    challenge = auth.request_login("alipay", "victim", location_hint="Hangzhou")
    print("  (2) alipay requests a login -> encrypted push (no SMS!)")

    print(f"  (3) pushes visible on the attacker's device: "
          f"{auth.pending_for('victim', 'attacker-phone')}")
    try:
        auth.approve(challenge, "attacker-phone")
    except PermissionError as exc:
        print(f"  (4) attacker approval rejected: {exc}")

    auth.approve(challenge, "victim-phone")
    print("  (5) victim approves on the enrolled device")
    print(f"  (6) alipay verifies the signal: {auth.verify(challenge)}")


if __name__ == "__main__":
    main()
