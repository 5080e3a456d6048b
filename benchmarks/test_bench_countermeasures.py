"""Section VII: countermeasure ablation.

Re-measures the ecosystem under each proposed defense -- unified masking,
email hardening, web/mobile symmetry repair, built-in OS authentication --
and all combined, reporting the potential-victim-set size and the
direct/safe fractions per platform.
"""

from repro.api import AnalysisService, DefenseEvalQuery
from repro.core.tdg import DependencyLevel
from repro.defense.evaluation import outcome_rows
from repro.model.factors import Platform
from repro.utils.tables import format_table


def test_bench_countermeasures(benchmark, ecosystem):
    def ablate():
        service = AnalysisService(ecosystem)
        return service.execute(DefenseEvalQuery()).row(
            service.primary_attacker
        )

    outcomes = benchmark.pedantic(ablate, rounds=1, iterations=1)

    print(
        "\n"
        + format_table(
            ("defense", "PAV", "web direct", "web safe", "mobile direct", "mobile safe"),
            outcome_rows(outcomes),
            title="Section VII -- countermeasure ablation",
        )
    )
    by_label = {o.label: o for o in outcomes}
    benchmark.extra_info["pav"] = {
        label: outcome.pav_size for label, outcome in by_label.items()
    }

    baseline = by_label["baseline"]
    # Baseline: nearly everything is a potential victim.
    assert baseline.pav_fraction > 0.9
    # Every defense weakly shrinks the PAV; email hardening strictly.
    for label, outcome in by_label.items():
        assert outcome.pav_size <= baseline.pav_size, label
    assert by_label["email_hardening"].pav_size < baseline.pav_size
    # Unified masking strictly grows the safe set (kills combining chains).
    assert (
        by_label["unified_masking"].safe_fraction[Platform.WEB]
        > baseline.safe_fraction[Platform.WEB]
    )
    # Built-in authentication (the paper's end-state proposal) zeroes the
    # SMS attack surface entirely.
    assert by_label["builtin_auth"].pav_size == 0
    assert by_label["all_combined"].pav_size == 0
    for platform in (Platform.WEB, Platform.MOBILE):
        assert by_label["builtin_auth"].dependency[platform][
            DependencyLevel.SAFE
        ] == 1.0
