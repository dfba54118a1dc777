"""Table rendering, paper-vs-measured comparison, charts and export."""

from repro.analysis.tables import render_table1, render_table2, render_table3
from repro.analysis.compare import ComparisonRow, compare_to_paper, shape_checks
from repro.analysis.export import rows_to_csv, to_json
from repro.analysis.reference_systems import REFERENCE_SYSTEMS, render_reference_table

__all__ = [
    "render_table1",
    "render_table2",
    "render_table3",
    "ComparisonRow",
    "compare_to_paper",
    "shape_checks",
    "rows_to_csv",
    "to_json",
    "REFERENCE_SYSTEMS",
    "render_reference_table",
]
