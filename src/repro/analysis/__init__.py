"""Figure/table assembly, paper-vs-measured comparison, and export."""

from repro.analysis.tables import render_table1, render_table2, render_table3
from repro.analysis.figures import (
    figure1_data,
    figure2_data,
    figure3_data,
    figure4_data,
    figure1_from_envelopes,
    figure2_from_envelopes,
    figure3_from_envelopes,
    figure4_from_envelopes,
    make_session,
)
from repro.analysis.compare import ComparisonRow, compare_to_paper, shape_checks
from repro.analysis.export import rows_to_csv, to_json
from repro.analysis.reference_systems import REFERENCE_SYSTEMS, render_reference_table

__all__ = [
    "render_table1",
    "render_table2",
    "render_table3",
    "figure1_data",
    "figure2_data",
    "figure3_data",
    "figure4_data",
    "figure1_from_envelopes",
    "figure2_from_envelopes",
    "figure3_from_envelopes",
    "figure4_from_envelopes",
    "make_session",
    "ComparisonRow",
    "compare_to_paper",
    "shape_checks",
    "rows_to_csv",
    "to_json",
    "REFERENCE_SYSTEMS",
    "render_reference_table",
]
