"""Auditing an ecosystem the way a service provider would use ActFort.

The paper pitches ActFort as a tool for providers: measure the ecosystem,
find out which *other* services endanger yours, and quantify breach blast
radius.  This example:

1. reproduces the Section IV measurement (Fig. 3 / Table I / levels),
2. evaluates the five key insights,
3. answers "if service X is breached today, what else falls?" via the
   forward closure seeded with an Online Account Attacked Set.

Run:  python examples/ecosystem_audit.py
"""

from repro import ActFort, AnalysisService, build_default_ecosystem
from repro.analysis import (
    compute_insights,
    dependency_level_rows,
    table1_rows,
)
from repro.api import MeasurementQuery
from repro.utils.tables import format_table


def main() -> None:
    ecosystem = build_default_ecosystem()
    actfort = ActFort.from_ecosystem(ecosystem)

    # --- Section IV measurement -------------------------------------
    results = AnalysisService.from_actfort(actfort).execute(
        MeasurementQuery()
    )
    print("\n".join(results.summary_lines()))
    print()
    print(
        format_table(
            ("kind", "web %", "paper", "mobile %", "paper"),
            table1_rows(results),
            title="Table I -- information exposed after log-in",
        )
    )
    print()
    print(
        format_table(
            ("level", "web %", "paper", "mobile %", "paper"),
            dependency_level_rows(results),
            title="Dependency levels (Section IV-B)",
        )
    )

    # --- Key insights -------------------------------------------------
    print()
    for check in compute_insights(actfort):
        marker = "HOLDS " if check.holds else "FAILS "
        print(f"[{marker}] {check.title}")
        print(f"          {check.evidence}")

    # --- Breach blast radius ------------------------------------------
    print()
    engine = actfort.strategy()
    for breached in ("gmail", "ctrip", "jd"):
        closure = engine.forward_closure(initially_compromised=[breached])
        baseline = engine.forward_closure()
        extra = closure.compromised - baseline.compromised
        print(
            f"breach of {breached!r}: PAV {len(closure.compromised)} "
            f"(+{len(extra)} beyond the no-breach baseline)"
        )


if __name__ == "__main__":
    main()
