"""Declarative studies and the envelope query layer.

The paper's whole evaluation is one cross-product study — chips x
workloads x variants x sizes, reported as performance and efficiency.
This package makes that literal:

* :class:`~repro.study.spec.StudySpec` — a frozen, hashable grid
  description that compiles to the existing experiment specs and runs
  through any session backend with manifest resume
  (:func:`~repro.study.spec.run_study`);
* :class:`~repro.study.frame.ResultFrame` — filter / derive / group_by /
  aggregate / pivot over envelope collections, with per-workload metric
  extractors (GFLOP/s, GB/s, fraction-of-peak, joules, GFLOPS/W) resolved
  through the workload registry — identical over in-memory batches and
  on-disk stores;
* :mod:`~repro.study.defs` — Figures 1-4 and Tables 1-3 as data
  (:data:`FIGURES`/:data:`TABLES`): a study factory plus a frame query per
  figure, which every ``repro figureN`` command renders;
* :mod:`~repro.study.report` — efficiency pivots and paper comparison as
  frame queries (``repro study render efficiency``).

Quickstart::

    from repro.study import ResultFrame, paper_study, run_study

    frame = run_study(paper_study(fast=True), out="results/")
    eff = frame.pivot(("kind", "chip", "variant", "size"),
                      values="gflops_per_w")
"""

from repro.study.defs import (
    FIGURES,
    TABLES,
    FigureDef,
    TableDef,
    get_figure,
    get_table,
    paper_study,
    render_plain_table,
)
from repro.study.frame import AGGREGATORS, ResultFrame, Row
from repro.study.report import (
    EFFICIENCY_FIELDS,
    compare_study,
    efficiency_pivot,
    efficiency_rows,
    figure_series_bundle,
    render_efficiency_report,
    render_figure_text,
)
from repro.study.spec import StudySpec, WorkloadAxis, run_study, study_session

__all__ = [
    "StudySpec",
    "WorkloadAxis",
    "run_study",
    "study_session",
    "ResultFrame",
    "Row",
    "AGGREGATORS",
    "FigureDef",
    "TableDef",
    "FIGURES",
    "TABLES",
    "get_figure",
    "get_table",
    "paper_study",
    "render_plain_table",
    "EFFICIENCY_FIELDS",
    "efficiency_pivot",
    "efficiency_rows",
    "render_efficiency_report",
    "render_figure_text",
    "figure_series_bundle",
    "compare_study",
]
