"""Measurement study and figure/table reproduction.

- :mod:`repro.analysis.measurement` runs ActFort across the catalog and
  aggregates the paper's Section IV statistics.
- :mod:`repro.analysis.figures` shapes those aggregates into the exact
  rows/series of Fig. 3, Table I, the dependency-level percentages, the
  Fig. 4 connection graph, and the Fig. 11 seed-service TDG.
- :mod:`repro.analysis.insights` computes the five "Key Insights" as
  quantitative, assertable checks.
"""

from repro.analysis.measurement import MeasurementResults
from repro.analysis.figures import (
    connection_graph_summary,
    dependency_level_rows,
    fig3_rows,
    fig4_graph,
    render_fig11_tdg,
    table1_rows,
)
from repro.analysis.insights import InsightCheck, compute_insights
from repro.analysis.report import full_report

__all__ = [
    "InsightCheck",
    "full_report",
    "MeasurementResults",
    "compute_insights",
    "connection_graph_summary",
    "dependency_level_rows",
    "fig3_rows",
    "fig4_graph",
    "render_fig11_tdg",
    "table1_rows",
]
