"""The paper's figures and tables, re-expressed as data.

Each entry of :data:`FIGURES` pairs a declarative grid (a
:class:`~repro.study.spec.StudySpec` factory) with a
:class:`~repro.study.frame.ResultFrame` query producing the plottable
series — adding a figure, a chip or an efficiency view means adding data
here, not writing another assembly loop.  The queries stay byte-identical
to the hand-assembled loops they replaced (enforced by
``tests/study/test_equivalence.py``).

:data:`TABLES` does the same for Tables 1-3: each holds a builder from the
system inventory (:mod:`repro.soc`, :mod:`repro.core.gemm.registry`) to
``(headers, rows)``, rendered by :func:`render_plain_table` — the one
generic ASCII renderer.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping, Sequence

from repro.calibration import paper
from repro.core.gemm.registry import paper_implementation_keys, table2_rows
from repro.errors import ConfigurationError
from repro.soc.catalog import CHIP_NAMES, get_chip
from repro.soc.device import device_catalog
from repro.study.frame import ResultFrame
from repro.study.spec import StudySpec, WorkloadAxis

__all__ = [
    "FigureDef",
    "TableDef",
    "FIGURES",
    "TABLES",
    "get_figure",
    "get_table",
    "paper_study",
    "render_plain_table",
]


# ---------------------------------------------------------------------------
# Series queries (shared by live runs and persisted stores)
# ---------------------------------------------------------------------------
def _series_scaffold(
    chips: Sequence[str] | None, impl_keys: Sequence[str] | None
) -> dict[str, dict[str, dict[int, float]]]:
    """Every requested (chip, impl) key present, even when its series is empty."""
    if chips is None:
        return {}
    keys = tuple(impl_keys) if impl_keys is not None else paper_implementation_keys()
    return {chip: {key: {} for key in keys} for chip in chips}


def _filtered(
    frame: ResultFrame, kind: str, chips: Sequence[str] | None
) -> ResultFrame:
    if chips is None:
        return frame.filter(kind=kind)
    return frame.filter(kind=kind, chip=tuple(chips))


def _sweep_series(kind: str, metric: str) -> Callable:
    """The Figure-2/3/4 query: ``{chip: {impl: {n: metric}}}``."""

    def build(
        frame: ResultFrame,
        chips: Sequence[str] | None = None,
        impl_keys: Sequence[str] | None = None,
    ) -> dict[str, dict[str, dict[int, float]]]:
        return _filtered(frame, kind, chips).pivot(
            ("chip", "impl_key", "n"),
            values=metric,
            seed=_series_scaffold(chips, impl_keys),
        )

    return build


def _stream_series(
    frame: ResultFrame,
    chips: Sequence[str] | None = None,
    impl_keys: Sequence[str] | None = None,
) -> dict[str, dict]:
    """The Figure-1 query: theoretical peak plus per-kernel bars per target."""
    sub = _filtered(frame, "stream", chips)
    theoretical = sub.pivot("chip", values="theoretical_gbs", agg="first")
    kernels = sub.pivot(("chip", "target"), values="kernel_gbs")
    out = {
        chip: {"theoretical": theoretical[chip], **kernels[chip]}
        for chip in kernels
    }
    if chips is not None:
        return {chip: out[chip] for chip in chips if chip in out}
    return out


# ---------------------------------------------------------------------------
# Figure definitions
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FigureDef:
    """One paper figure as data: its grid axis plus its series query.

    ``axis_defaults`` hold the paper's full protocol; ``fast_overrides``
    replace them for smoke-grade runs (``repro study run --fast``, CI).
    ``series_builder`` is the frame query — identical whether the frame
    wraps a live batch or a loaded store.
    """

    name: str
    title: str
    kind: str
    metric: str
    unit: str
    value_name: str
    series_builder: Callable
    axis_defaults: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    fast_overrides: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def axis(self, *, fast: bool = False, **overrides: Any) -> WorkloadAxis:
        """This figure's workload axis; ``None`` overrides take the default."""
        merged = dict(self.axis_defaults)
        if fast:
            merged.update(self.fast_overrides)
        merged.update(
            {name: value for name, value in overrides.items() if value is not None}
        )
        return WorkloadAxis(kind=self.kind, **merged)

    def study(
        self,
        chips: Sequence[str] | None = None,
        *,
        seed: int = 0,
        fast: bool = False,
        **overrides: Any,
    ) -> StudySpec:
        """The declarative study producing exactly this figure's grid."""
        return StudySpec(
            name=self.name,
            chips=tuple(chips) if chips is not None else paper.CHIPS,
            axes=(self.axis(fast=fast, **overrides),),
            seed=seed,
        )

    def series(
        self,
        frame: ResultFrame,
        *,
        chips: Sequence[str] | None = None,
        impl_keys: Sequence[str] | None = None,
    ) -> dict:
        """The figure's plottable series, assembled by the frame query."""
        return self.series_builder(frame, chips, impl_keys)


#: Figures 1-4, keyed by CLI name.  Axis defaults are the paper's protocol
#: (section 4); the metric names resolve through the workload registry's
#: extractors, so the very same definitions read live batches and stores.
FIGURES: dict[str, FigureDef] = {
    fig.name: fig
    for fig in (
        FigureDef(
            name="figure1",
            title="Figure 1 — STREAM bandwidth (GB/s), max over repetitions",
            kind="stream",
            metric="kernel_gbs",
            unit="GB/s",
            value_name="bandwidth_gbs",
            series_builder=_stream_series,
            axis_defaults={"targets": ("cpu", "gpu")},
            fast_overrides={"n_elements": 1 << 14, "repeats": 2},
        ),
        FigureDef(
            name="figure2",
            title="Figure 2 — GEMM",
            kind="gemm",
            metric="gflops",
            unit="GFLOPS",
            value_name="gflops",
            series_builder=_sweep_series("gemm", "gflops"),
            axis_defaults={
                "sizes": paper.GEMM_SIZES,
                "repeats": paper.GEMM_REPEATS,
            },
            fast_overrides={"sizes": (32, 1024, 4096), "repeats": 1},
        ),
        FigureDef(
            name="figure3",
            title="Figure 3 — power",
            kind="powered-gemm",
            metric="power_mw",
            unit="mW",
            value_name="power_mw",
            series_builder=_sweep_series("powered-gemm", "power_mw"),
            axis_defaults={
                "sizes": paper.POWER_SIZES,
                "repeats": paper.GEMM_REPEATS,
            },
            fast_overrides={"sizes": (2048, 16384), "repeats": 1},
        ),
        FigureDef(
            name="figure4",
            title="Figure 4 — efficiency",
            kind="powered-gemm",
            metric="gflops_per_w",
            unit="GFLOPS/W",
            value_name="gflops_per_w",
            series_builder=_sweep_series("powered-gemm", "gflops_per_w"),
            axis_defaults={
                "sizes": paper.POWER_SIZES,
                "repeats": paper.GEMM_REPEATS,
            },
            fast_overrides={"sizes": (2048, 16384), "repeats": 1},
        ),
    )
}


def get_figure(name: str) -> FigureDef:
    """The figure definition registered under ``name``."""
    try:
        return FIGURES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {name!r}; known: {', '.join(FIGURES)}"
        ) from None


def paper_study(
    chips: Sequence[str] | None = None,
    *,
    seed: int = 0,
    fast: bool = False,
    figures: Sequence[str] | None = None,
) -> StudySpec:
    """The whole paper as one study: the union of the figures' axes.

    Figures sharing a grid (3 and 4 both read the powered-GEMM sweep)
    contribute one axis, so the compiled grid holds each cell once.
    """
    names = tuple(figures) if figures is not None else tuple(FIGURES)
    axes = tuple(
        dict.fromkeys(get_figure(name).axis(fast=fast) for name in names)
    )
    return StudySpec(
        name="paper" if figures is None else "+".join(names),
        chips=tuple(chips) if chips is not None else paper.CHIPS,
        axes=axes,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Table definitions
# ---------------------------------------------------------------------------
def render_plain_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Plain-text table with padded columns (the one generic renderer)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(fmt(list(headers)))
    out.append(sep)
    out.extend(fmt(list(row)) for row in rows)
    return "\n".join(out)


def _table1_data(chips: tuple[str, ...] = CHIP_NAMES) -> tuple[list, list]:
    """Table 1 rows from the chip catalog (transcribed architecture data)."""
    specs = [get_chip(name) for name in chips]
    features: list[tuple[str, list[str]]] = [
        ("Process Technology (nm)", [c.process_nm for c in specs]),
        ("CPU Architecture", [c.isa for c in specs]),
        ("Performance/Efficiency Cores", [c.core_config_label() for c in specs]),
        ("Clock Frequency (GHz)", [c.clock_label() for c in specs]),
        (
            "Vector Unit (name/size)",
            [f"NEON/{c.performance_cluster.simd_width_bits}" for c in specs],
        ),
        (
            "L1 Cache (KB)",
            [
                f"{c.performance_cluster.l1_kb} (P)/{c.efficiency_cluster.l1_kb} (E)"
                for c in specs
            ],
        ),
        (
            "L2 Cache (MB)",
            [
                f"{c.performance_cluster.l2_mb} (P)/{c.efficiency_cluster.l2_mb} (E)"
                for c in specs
            ],
        ),
        (
            "AMX Characteristics",
            [
                "FP16,32,64" + ("/BF16" if any(p.key == "bf16" for p in c.amx.precisions) else "")
                for c in specs
            ],
        ),
        (
            "GPU Cores",
            [
                f"{c.gpu.cores_min}-{c.gpu.cores_max}"
                if c.gpu.cores_min != c.gpu.cores_max
                else str(c.gpu.cores_max)
                for c in specs
            ],
        ),
        (
            "Native Precision Support",
            ["FP32, FP16, INT8" for _ in specs],
        ),
        ("GPU Clock Frequency (GHz)", [f"{c.gpu.clock_ghz:g}" for c in specs]),
        (
            "Theoretical FP32 FLOPS (TFLOPS)",
            [
                f"{c.gpu.table_fp32_tflops[0]:g}-{c.gpu.table_fp32_tflops[1]:g}"
                if c.gpu.table_fp32_tflops[0] != c.gpu.table_fp32_tflops[1]
                else f"{c.gpu.table_fp32_tflops[1]:g}"
                for c in specs
            ],
        ),
        ("Neural Engine Units (Core)", [str(c.neural_engine.cores) for c in specs]),
        ("Memory Technology", [c.memory.technology for c in specs]),
        (
            "Max Unified Memory (GB)",
            ["-".join(str(g) for g in c.memory.max_gb_options) for c in specs],
        ),
        ("Memory Bandwidth (GB/s)", [f"{c.memory.bandwidth_gbs:g}" for c in specs]),
    ]
    headers = ["Feature"] + list(chips)
    rows = [[feature] + values for feature, values in features]
    return headers, rows


def _table2_data() -> tuple[list, list]:
    """Table 2 rows from the GEMM implementation registry."""
    return (
        ["Implementation", "Framework", "Hardware"],
        [list(row) for row in table2_rows()],
    )


def _table3_data() -> tuple[list, list]:
    """Table 3 rows from the device catalog."""
    devices = device_catalog()
    chips = list(devices)
    rows = [
        ["Device", *[devices[c].model for c in chips]],
        ["Release", *[str(devices[c].release_year) for c in chips]],
        ["Memory", *[f"{devices[c].memory_gb}GB" for c in chips]],
        ["Cooling", *[devices[c].cooling.value for c in chips]],
        ["MacOS", *[devices[c].macos_version for c in chips]],
    ]
    return ["Feature"] + chips, rows


def _calibration_mape_data(
    result: Any | None = None, chips: Sequence[str] | None = None
) -> tuple[list, list]:
    """Per-chip calibration MAPE rows.

    With no arguments this runs a small self-calibration (paper-derived
    synthetic trace, trimmed grid) so ``repro study render calibration-mape``
    works zero-arg; pass an existing
    :class:`~repro.calibrate.result.CalibrationResult` to render it instead.
    The import is lazy: ``repro.calibrate`` sits above the study layer.
    """
    if result is None:
        from repro.calibrate import default_spec, run_calibration, synthesize_trace

        trace = synthesize_trace(chips=chips)
        spec = default_spec(
            chips=chips if chips is not None else None,
            coarse_points=7,
            refine_rounds=3,
        )
        result = run_calibration(trace, spec)
    headers, rows = result.mape_table()
    return list(headers), [list(r) for r in rows]


@dataclasses.dataclass(frozen=True)
class TableDef:
    """One paper table as data: a builder from the inventory to rows."""

    name: str
    title: str
    build: Callable[..., tuple[list, list]]

    def render(self, *args: Any, **kwargs: Any) -> str:
        """The table's canonical ASCII rendering."""
        headers, rows = self.build(*args, **kwargs)
        return render_plain_table(headers, rows, title=self.title)


#: Tables 1-3, keyed by CLI name.
TABLES: dict[str, TableDef] = {
    table.name: table
    for table in (
        TableDef(
            name="table1",
            title=(
                "Table 1. Comparison of Baseline Apple Silicon M Series "
                "Architecture."
            ),
            build=_table1_data,
        ),
        TableDef(
            name="table2",
            title="Table 2. Overview of matrix multiplication implementations.",
            build=_table2_data,
        ),
        TableDef(
            name="table3",
            title="Table 3. Basic information of devices used.",
            build=_table3_data,
        ),
        TableDef(
            name="calibration-mape",
            title=(
                "Calibration — per-chip MAPE of the fitted simulator "
                "(self-calibration against a paper-derived synthetic trace)."
            ),
            build=_calibration_mape_data,
        ),
    )
}


def get_table(name: str) -> TableDef:
    """The table definition registered under ``name``."""
    try:
        return TABLES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown table {name!r}; known: {', '.join(TABLES)}"
        ) from None
