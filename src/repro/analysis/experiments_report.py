"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

The report is produced by actually running the reproduction as one
declarative study — :func:`repro.study.defs.paper_study` compiled through a
session, with every figure assembled by its
:class:`~repro.study.frame.ResultFrame` query — plus the GH200 reference
rows, and lining the results up with the paper's quoted values.
``repro experiments`` writes it to disk.
"""

from __future__ import annotations

from repro._version import PAPER_ARXIV, PAPER_TITLE, __version__
from repro.analysis.compare import compare_to_paper, render_comparison, shape_checks
from repro.calibration import paper
from repro.cuda import CublasHandle, CudaMathMode, GH200Machine, run_gh200_stream
from repro.cuda.cublas import CUBLAS_OP_N, cublas_sgemm
from repro.sim.policy import NumericsConfig
from repro.study import figure_series_bundle, paper_study, run_study, study_session

__all__ = ["generate_experiments_report"]


def _gh200_rows() -> list[tuple[str, float, float, str]]:
    import numpy as np

    machine = GH200Machine(numerics=NumericsConfig.model_only())
    rows: list[tuple[str, float, float, str]] = []
    for target, key in (("cpu", "stream_cpu_gbs"), ("hbm3", "stream_hbm3_gbs")):
        result = run_gh200_stream(machine, target, n_elements=1 << 25, repeats=5)
        rows.append(
            (
                f"GH200 STREAM {target.upper()}",
                float(paper.GH200[key]),
                float(result.max_gbs),
                "GB/s",
            )
        )
    n = 16384
    a = np.zeros((n, n), dtype=np.float32)
    b = np.zeros((n, n), dtype=np.float32)
    c = np.zeros((n, n), dtype=np.float32)
    for mode, key, label in (
        (CudaMathMode.CUDA_CORES_FP32, "sgemm_cuda_tflops", "CUDA cores"),
        (CudaMathMode.TF32_TENSOR, "sgemm_tf32_tflops", "TF32 tensor cores"),
    ):
        handle = CublasHandle(machine, math_mode=mode)
        t0 = machine.now_ns()
        cublas_sgemm(
            handle, CUBLAS_OP_N, CUBLAS_OP_N, n, n, n, 1.0, a, n, b, n, 0.0, c, n
        )
        # flops / ns == GFLOPS; one more factor of 1e3 to TFLOPS.
        tflops = n * n * (2 * n - 1) / (machine.now_ns() - t0) / 1e3
        rows.append(
            (f"GH200 cublasSgemm {label}", float(paper.GH200[key]), tflops, "TFLOPS")
        )
    return rows


def _calibration_section(*, seed: int = 0) -> list[str]:
    from repro.calibrate import default_spec, run_calibration, synthesize_trace

    trace = synthesize_trace(seed=seed)
    spec = default_spec(coarse_points=7, refine_rounds=3, seed=seed)
    result = run_calibration(trace, spec)
    headers, rows = result.mape_table()
    lines = ["## Calibration loop", ""]
    lines.append(
        "Closed-loop self-calibration (see DESIGN.md §11): "
        "`repro calibrate --against synthetic` fits the simulator's "
        f"{len(spec.knobs)} calibration knobs against a trace of the anchored "
        "model's own outputs and must recover the anchors to <= 1 % MAPE — "
        f"this run lands at {result.overall_mape_pct:.3f} % overall over "
        f"{result.cells_evaluated} candidate cells.  The same search against "
        "the paper's published numbers (`repro calibrate --against paper`) "
        "reports how far the fitted model sits from Figures 1, 2 and 4."
    )
    lines.append("")
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|---|" + "---:|" * (len(headers) - 1))
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(
        "Deterministic by construction: the same seed and trace produce a "
        "byte-identical `calibration.json` artifact (no timestamps, canonical "
        "JSON, model-only numerics with noise disabled)."
    )
    lines.append("")
    return lines


def generate_experiments_report(*, seed: int = 0) -> str:
    """Run the full reproduction (one declarative study) and render the report."""
    study = paper_study(seed=seed)
    frame = run_study(study, session=study_session(study, fast=True))
    series = figure_series_bundle(frame, chips=paper.CHIPS)
    fig1 = series["figure1"]
    fig2 = series["figure2"]
    fig3 = series["figure3"]
    fig4 = series["figure4"]

    rows = compare_to_paper(fig1=fig1, fig2=fig2, fig4=fig4)
    checks = shape_checks(fig1=fig1, fig2=fig2, fig4=fig4)
    gh200_rows = _gh200_rows()

    worst = max(abs(r.relative_error) for r in rows)
    n_pass = sum(checks.values())

    lines: list[str] = []
    lines.append("# EXPERIMENTS — paper vs. measured")
    lines.append("")
    lines.append(
        f"Paper: *{PAPER_TITLE}* (arXiv:{PAPER_ARXIV}).  "
        f"Generated by `repro experiments` (repro {__version__}, seed {seed}); "
        f"regenerate any individual entry with the bench named in DESIGN.md's "
        f"per-experiment index."
    )
    lines.append("")
    lines.append(
        "The substrate is a calibrated simulator (see DESIGN.md §2), so "
        "headline values matching the paper validates the *pipeline and "
        "calibration*, while the qualitative shape checks below validate the "
        "claims a reproduction on different substrate must preserve."
    )
    lines.append("")
    lines.append("## Summary")
    lines.append("")
    lines.append(f"* {len(rows)} quantitative targets, worst deviation {worst:.1%}.")
    lines.append(f"* {n_pass}/{len(checks)} qualitative shape checks pass.")
    lines.append("")
    lines.append("## Workload registry")
    lines.append("")
    lines.append(
        "Enumerated from `repro.workloads` (the pluggable registry; see "
        "DESIGN.md §6) — `repro workloads` prints the same table, and "
        "`repro run --kind <kind>` executes any of them:"
    )
    lines.append("")
    lines.append(
        "| Kind | Workload | Implementation keys | Fast path | Description |"
    )
    lines.append("|---|---|---|---|---|")
    from repro.workloads import all_workloads

    for workload in all_workloads():
        keys = ", ".join(f"`{k}`" for k in workload.impl_keys) or "—"
        fast = "yes" if workload.vectorized_body is not None else "scalar"
        lines.append(
            f"| `{workload.kind}` | {workload.display_name} | {keys} "
            f"| {fast} | {workload.description} |"
        )
    lines.append("")
    lines.append(
        "Sweeps execute through pluggable backends — "
        "`repro run --backend serial|vectorized|sharded` "
        "(vectorized batch-evaluates whole grids through the roofline model, "
        "see DESIGN.md §7; sharded runs it inside worker processes) — with "
        "byte-identical envelopes by construction. "
        "`repro run --out DIR` writes a sharded, "
        "manifest-indexed store as cells complete, and "
        "`repro run --resume DIR` finishes an interrupted campaign by "
        "executing only the cells the manifest does not mark done "
        "(see DESIGN.md §2, \"Backends and resumable runs\")."
    )
    lines.append("")
    lines.append("## Study API")
    lines.append("")
    lines.append(
        "This report itself is produced declaratively: the whole grid is "
        "one `repro.study.StudySpec` (`paper_study()` — chips x the four "
        "figures' workload axes) executed in a single batch, and every "
        "figure below is a `ResultFrame` query over the resulting "
        "envelopes (see DESIGN.md §8, \"Study API and result queries\"). "
        "`repro study run --out DIR` persists the same grid to a "
        "manifest-indexed store and `repro study render figure2|efficiency "
        "--from DIR` re-renders figures — or GFLOPS-per-watt efficiency "
        "pivots across every power-bearing workload — from it without "
        "recomputation."
    )
    lines.append("")
    lines.append("## Experiment service")
    lines.append("")
    lines.append(
        "Every cell is a pure function of (spec, session fingerprint), so "
        "the grid can also be served: `repro serve --store DIR --backend "
        "vectorized` keeps one manifest-indexed store warm behind a "
        "stdlib HTTP server, `repro submit --study --fast` submits this "
        "very grid to it, and a repeat submission resolves entirely from "
        "cache (0 cells re-executed, byte-identical envelopes).  In-flight "
        "duplicates coalesce onto one running job, killed servers resume "
        "their queue from the manifest journal on restart, and `repro "
        "query --figure figure2` / `--fields ... --where ...` renders "
        "figures and runs `ResultFrame` queries server-side from the warm "
        "store (see DESIGN.md §9, \"Experiment service\")."
    )
    lines.append("")
    lines.append("## Tables 1-3")
    lines.append("")
    lines.append(
        "Transcribed as data (`repro.soc.catalog`, `repro.core.gemm.registry`, "
        "`repro.soc.device`) and re-rendered by `repro table1|table2|table3`; "
        "pinned cell-by-cell in `tests/soc/test_catalog.py`, "
        "`tests/core/test_gemm_registry_verify.py` and "
        "`tests/soc/test_device.py`. Exact match by construction."
    )
    lines.append("")
    lines.append("## Figures 1, 2 and 4 — quantitative")
    lines.append("")
    lines.append(render_comparison(rows))
    lines.append("")
    lines.append("## Figure 3 — power dissipation")
    lines.append("")
    lines.append("Mean combined CPU+GPU draw at n = 16384 (mW), per §3.3 protocol:")
    lines.append("")
    header = "| Implementation | " + " | ".join(paper.CHIPS) + " |"
    lines.append(header)
    lines.append("|---|" + "---:|" * len(paper.CHIPS))
    for impl in ("cpu-accelerate", "gpu-naive", "gpu-cutlass", "gpu-mps"):
        cells = []
        for chip in paper.CHIPS:
            value = fig3[chip][impl].get(16384)
            cells.append(f"{value:.0f}" if value is not None else "—")
        lines.append(f"| {impl} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(
        "Paper anchor points: 'a few watts to about 20 watts', with the M4 "
        "GPU-CUTLASS run at the top (~20 W) and laptops (M1, M3) below the "
        "desktops (M2, M4) — all reproduced (see `bench_fig3_power.py`)."
    )
    lines.append("")
    lines.append("## GH200 reference (sections 4-5)")
    lines.append("")
    lines.append("| Quantity | Paper | Measured | Unit |")
    lines.append("|---|---:|---:|---|")
    for label, paper_value, measured, unit in gh200_rows:
        lines.append(f"| {label} | {paper_value:.0f} | {measured:.0f} | {unit} |")
    lines.append("")
    lines.extend(_calibration_section(seed=seed))
    lines.append("## Qualitative shape checks")
    lines.append("")
    for name, ok in sorted(checks.items()):
        lines.append(f"* [{'x' if ok else ' '}] `{name}`")
    lines.append("")
    lines.append("## Known deviations")
    lines.append("")
    lines.append(
        "* GH200 HBM3 theoretical peak taken as 4.0 TB/s (datasheet); the "
        "paper's '94%' implies ~3.94 TB/s — we report 3700 GB/s = 92.5% of "
        "4.0 TB/s."
    )
    lines.append(
        "* The paper's §5.2 text swaps the naive/CUTLASS descriptions; the "
        "numbers (naive 0.20-0.54 TFLOPS > CUTLASS 0.15-0.34) are treated as "
        "ground truth."
    )
    lines.append(
        "* M4 Table-1 theoretical GPU FLOPS (4.26 TFLOPS) is inconsistent "
        "with cores x ALUs x 2 x 1.47 GHz (3.76); the table value is used as "
        "the architectural peak."
    )
    lines.append("")
    return "\n".join(lines)
