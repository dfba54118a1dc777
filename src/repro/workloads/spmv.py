"""SpMV workload plugin: CSR sparse matrix-vector multiply (memory-bound).

``y = A x`` with ``A`` in compressed-sparse-row form, FP64 values and int32
indices.  The cost model counts 2 FLOPs per nonzero against roughly
``12 * nnz`` bytes of CSR traffic (values + column indices + the row
pointer, ``x`` gathers and the ``y`` store), an arithmetic intensity of
~0.17 FLOP/byte — far below every chip's roofline ridge, so the kernel sits
deep in the memory-bound regime and complements the compute-bound GEMM
study.  The effective bandwidth is the STREAM link model degraded by a
gather penalty that amortises with row density (sparser rows waste more of
each cache line on the irregular ``x`` accesses).

The module is a self-contained registry plugin: spec, result record, cost
model, executor, JSON codec, sweep semantics and CLI rendering all live
here, and a single :func:`~repro.workloads.registry.register_workload` call
wires them into the generic session/envelope/CLI machinery.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.calibration.stream import (
    STREAM_NOISE_SIGMA,
    stream_calibration,
    stream_power_draws,
)
from repro.core.results import (
    GemmRepetition,
    check_elapsed_ns,
    repetition_view,
)
from repro.errors import ConfigurationError
from repro.experiments.specs import ExperimentSpec, SweepSpec
from repro.sim.engine import EngineKind
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy
from repro.sim.vectorized import (
    LoweredGroup,
    OpColumns,
    effective_draw_w,
    run_lowered_sequence,
)
from repro.workloads.base import (
    Workload,
    best_elapsed_s,
    elapsed_ns_from_list,
    iter_axes,
    lowered_cell,
    modelled_power_metrics,
    rounded_elapsed_ns,
    spec_column,
    variant_grid,
)
from repro.workloads.registry import register_workload

__all__ = [
    "SpmvSpec",
    "SpmvResult",
    "lower_spmv_group",
    "run_spmv_spec",
    "SPMV_WORKLOAD",
]

_VALUE_BYTES = 8  # FP64 values, as in the reference CSR kernels
_INDEX_BYTES = 4  # int32 column indices / row pointer

#: Default row-length and sweep sizes (rows): 16 nonzeros per row is the
#: classic stencil-matrix density; the sizes span L2-resident to DRAM-bound.
DEFAULT_NNZ_PER_ROW = 16
DEFAULT_SPMV_SIZES: tuple[int, ...] = (1 << 14, 1 << 16, 1 << 18, 1 << 20)
DEFAULT_SPMV_REPEATS = 5

#: Gather penalty half-point: rows of ``h`` nonzeros reach 50 % of the
#: streaming link; density amortises the irregular ``x`` accesses.
_GATHER_HALF_NNZ = 4.0

_CPU_OVERHEAD_S = 5e-6
_GPU_OVERHEAD_S = 150e-6

#: Numerics execute on a capped problem so FULL sessions stay quick.
_NUMERICS_MAX_ROWS = 1024


@dataclasses.dataclass(frozen=True)
class SpmvSpec(ExperimentSpec):
    """One SpMV cell: ``repeats`` timed ``y = A x`` passes over a seeded CSR matrix."""

    target: str = "cpu"
    n: int = 0
    nnz_per_row: int = DEFAULT_NNZ_PER_ROW
    repeats: int = DEFAULT_SPMV_REPEATS

    kind = "spmv"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target not in ("cpu", "gpu"):
            raise ConfigurationError(
                f"SpMV target must be 'cpu' or 'gpu', got {self.target!r}"
            )
        if self.n <= 0:
            raise ConfigurationError("row count must be positive")
        if not 1 <= self.nnz_per_row <= self.n:
            raise ConfigurationError("nnz_per_row must be in [1, n]")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")


@dataclasses.dataclass(frozen=True)
class SpmvResult:
    """All repetitions of one SpMV cell."""

    chip_name: str
    target: str
    n: int
    nnz: int
    flop_count: int
    bytes_moved: float
    theoretical_gbs: float
    elapsed_ns: tuple[int, ...]  # one timing per repetition, in order
    verified: bool | None = None
    #: Modelled draw (W) while the kernel runs — the simulator's thermally
    #: clamped total (:func:`repro.sim.vectorized.effective_draw_w`).
    #: ``None`` on envelopes persisted before the draw was surfaced.
    power_w: float | None = None

    def __post_init__(self) -> None:
        check_elapsed_ns(self.elapsed_ns)
        if self.nnz <= 0 or self.flop_count <= 0 or self.bytes_moved <= 0:
            raise ConfigurationError("SpMV work content must be positive")
        if self.power_w is not None and self.power_w < 0.0:
            raise ConfigurationError("power draw cannot be negative")

    @property
    def repetitions(self) -> tuple[GemmRepetition, ...]:
        """Per-repetition records, derived from ``elapsed_ns``."""
        return repetition_view(self.elapsed_ns)

    @property
    def best_gflops(self) -> float:
        """Peak achieved GFLOPS over the repetitions."""
        return self.flop_count / min(self.elapsed_ns)

    @property
    def mean_gflops(self) -> float:
        """Mean achieved GFLOPS over the repetitions."""
        return statistics.fmean(self.flop_count / ns for ns in self.elapsed_ns)

    @property
    def best_gbs(self) -> float:
        """Peak achieved CSR traffic bandwidth (GB/s) — bytes over best time."""
        return self.bytes_moved / min(self.elapsed_ns)

    @property
    def fraction_of_peak(self) -> float:
        """Best achieved bandwidth as a fraction of the theoretical link peak."""
        return self.best_gbs / self.theoretical_gbs

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of CSR traffic (the roofline x-coordinate)."""
        return self.flop_count / self.bytes_moved


def _link_fraction(chip, target: str) -> float:
    """The STREAM link's fraction of the theoretical peak on one target."""
    calibration = stream_calibration(chip)
    target_gbs = (
        calibration.cpu_target("triad")
        if target == "cpu"
        else calibration.gpu_target("triad")
    )
    return min(1.0, target_gbs / chip.memory.bandwidth_gbs)


def _numerics_verified(spec: SpmvSpec) -> bool:
    """Run the CSR kernel on a capped seeded instance and cross-check it.

    The CSR pass (segmented reduction over ``vals * x[colind]``) is compared
    against a dense scatter-add reference; duplicate column indices
    accumulate identically on both sides.
    """
    m = min(spec.n, _NUMERICS_MAX_ROWS)
    k = min(spec.nnz_per_row, m)
    rng = np.random.default_rng([spec.seed, m, k])
    cols = rng.integers(0, m, size=(m, k))
    vals = rng.standard_normal((m, k))
    x = rng.standard_normal(m)

    rowptr = np.arange(0, m * k + 1, k)
    colind = cols.ravel()
    y = np.add.reduceat(vals.ravel() * x[colind], rowptr[:-1])

    dense = np.zeros((m, m))
    np.add.at(dense, (np.repeat(np.arange(m), k), colind), vals.ravel())
    return bool(np.allclose(y, dense @ x, rtol=1e-10, atol=1e-12))


def lower_spmv_group(machine, specs: Sequence[SpmvSpec]) -> LoweredGroup:
    """Lower SpMV cells of one (chip, target, repeats) group (the cost model).

    Sizes and row densities are columns over the group, so the CSR traffic,
    FLOPs and gather-degraded link efficiency are computed once for all of
    its cells, each repeating its one op.  ``machine`` is a
    :class:`~repro.sim.machine.Machine` or a
    :class:`~repro.sim.vectorized.VectorContext`; both the scalar executor
    (a group of one) and the vectorized backend evaluate this one lowering.
    """
    chip = machine.chip
    target, repeats = specs[0].target, specs[0].repeats
    n = spec_column(specs, "n")
    per_row = spec_column(specs, "nnz_per_row")
    nnz = n * per_row
    # one CSR pass: values + column indices, the row pointer, one streaming
    # pass over x (the gather cost is in the efficiency), then y
    bytes_read = (
        nnz * (_VALUE_BYTES + _INDEX_BYTES)
        + (n + 1) * _INDEX_BYTES
        + n * _VALUE_BYTES
    ).astype(np.float64)
    bytes_written = (n * _VALUE_BYTES).astype(np.float64)
    flops = (2.0 * nnz).astype(np.float64)  # one multiply + one add per nonzero
    # the STREAM link, degraded by a gather penalty amortised by row density
    gather = per_row / (per_row + _GATHER_HALF_NNZ)
    memory_efficiency = (_link_fraction(chip, target) * gather).astype(np.float64)
    engine = EngineKind.CPU_SIMD if target == "cpu" else EngineKind.GPU

    verified: list = [None] * len(specs)
    if machine.numerics.policy is not NumericsPolicy.MODEL_ONLY:
        verified = [_numerics_verified(spec) for spec in specs]

    draws = stream_power_draws(chip, target)
    power_w = effective_draw_w(machine.thermal, draws)
    chip_name = chip.name
    theoretical = chip.memory.bandwidth_gbs
    cells = list(
        zip(
            n.tolist(),
            nnz.tolist(),
            flops.tolist(),
            (bytes_read + bytes_written).tolist(),
            verified,
        )
    )

    def assemble(starts, ends) -> list[SpmvResult]:
        return [
            SpmvResult(
                chip_name=chip_name,
                target=target,
                n=rows,
                nnz=nonzeros,
                flop_count=int(work),
                bytes_moved=moved,
                theoretical_gbs=theoretical,
                elapsed_ns=elapsed_ns,
                verified=checked,
                power_w=power_w,
            )
            for (rows, nonzeros, work, moved, checked), elapsed_ns in zip(
                cells, rounded_elapsed_ns(starts, ends)
            )
        ]

    return LoweredGroup(
        seeds=[spec.seed for spec in specs],
        thermal=machine.thermal,
        ops=OpColumns(
            engine=engine,
            label=lambda slot: f"spmv/{target}/n={specs[slot].n}",
            noise_keys=[
                f"spmv/{chip_name}/{target}/n={spec.n}/k={spec.nnz_per_row}"
                for spec in specs
            ],
            flops=flops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            peak_flops=machine.peak_flops(engine),
            peak_bytes_per_s=machine.memory_bandwidth_bytes_per_s(),
            compute_efficiency=1.0,
            memory_efficiency=memory_efficiency,
            overhead_s=_CPU_OVERHEAD_S if target == "cpu" else _GPU_OVERHEAD_S,
            power_draws_w=draws,
            noise_sigma=STREAM_NOISE_SIGMA,
        ),
        length=repeats,
        assemble=assemble,
    )


def run_spmv_spec(machine: Machine, spec: SpmvSpec) -> SpmvResult:
    """Execute one SpMV cell on ``machine`` (its group-of-one lowering)."""
    return run_lowered_sequence(machine, lowered_cell(lower_spmv_group, machine, spec))


def _result_to_dict(result: SpmvResult) -> dict[str, Any]:
    return {
        "type": "spmv",
        "chip_name": result.chip_name,
        "target": result.target,
        "n": result.n,
        "nnz": result.nnz,
        "flop_count": result.flop_count,
        "bytes_moved": result.bytes_moved,
        "theoretical_gbs": result.theoretical_gbs,
        "elapsed_ns": list(result.elapsed_ns),
        "verified": result.verified,
        "power_w": result.power_w,
    }


def _result_from_dict(data: Mapping[str, Any]) -> SpmvResult:
    power_w = data.get("power_w")
    return SpmvResult(
        chip_name=data["chip_name"],
        target=data["target"],
        n=int(data["n"]),
        nnz=int(data["nnz"]),
        flop_count=int(data["flop_count"]),
        bytes_moved=float(data["bytes_moved"]),
        theoretical_gbs=float(data["theoretical_gbs"]),
        elapsed_ns=elapsed_ns_from_list(data["elapsed_ns"]),
        verified=data.get("verified"),
        power_w=float(power_w) if power_w is not None else None,
    )


def _sweep_cells(sweep: SweepSpec) -> Iterator[SpmvSpec]:
    from repro.calibration import paper

    repeats = (
        sweep.repeats if sweep.repeats is not None else DEFAULT_SPMV_REPEATS
    )
    # The listed implementation keys ARE the targets; honour --impls too.
    return iter_axes(
        chips=sweep.chips or paper.CHIPS,
        variants=sweep.impl_keys or sweep.targets,
        sizes=sweep.sizes or DEFAULT_SPMV_SIZES,
        make_spec=lambda chip, target, n: SpmvSpec(
            chip=chip,
            seed=sweep.seed,
            numerics=sweep.numerics,
            target=target,
            n=n,
            repeats=repeats,
        ),
    )


def _sample_variants(seed: int, count: int) -> tuple[SpmvSpec, ...]:
    return variant_grid(
        lambda rng: SpmvSpec(
            chip=rng.choice(("M1", "M2", "M3", "M4")),
            seed=rng.randrange(1 << 16),
            numerics=rng.choice((None, "full", "sampled", "model-only")),
            target=rng.choice(("cpu", "gpu")),
            n=rng.choice(DEFAULT_SPMV_SIZES),
            nnz_per_row=rng.randint(1, 64),
            repeats=rng.randint(1, DEFAULT_SPMV_REPEATS),
        ),
        seed,
        count,
    )


#: The registered SpMV workload (memory-bound roofline point).
SPMV_WORKLOAD: Workload = register_workload(
    Workload(
        kind="spmv",
        display_name="SpMV (CSR)",
        description="sparse matrix-vector multiply, memory-bound CSR cost model",
        spec_cls=SpmvSpec,
        result_cls=SpmvResult,
        execute=run_spmv_spec,
        result_to_dict=_result_to_dict,
        result_from_dict=_result_from_dict,
        sweep_cells=_sweep_cells,
        sample_spec=lambda: SpmvSpec(chip="M1", target="cpu", n=4096, repeats=2),
        cell_label=lambda spec: f"{spec.chip} spmv/{spec.target} n={spec.n}",
        summary_line=lambda spec, result: (
            f"{spec.chip:4s} spmv/{spec.target:3s} n={spec.n:<8d} "
            f"{result.best_gbs:8.1f} GB/s "
            f"({result.fraction_of_peak:.0%} of peak)"
        ),
        impl_keys=("cpu", "gpu"),
        sample_variants=_sample_variants,
        lower_group=lower_spmv_group,
        metrics={
            "gflops": lambda spec, r: r.best_gflops,
            "mean_gflops": lambda spec, r: r.mean_gflops,
            "gbs": lambda spec, r: r.best_gbs,
            "fraction_of_peak": lambda spec, r: r.fraction_of_peak,
            "elapsed_s": lambda spec, r: best_elapsed_s(r),
            **modelled_power_metrics(),
        },
    )
)
