"""2D stencil workload plugin: 5-point Jacobi, cache-blocked vs naive.

An ``n x n`` FP32 grid relaxed for ``iterations`` sweeps.  Each interior
point costs 4 FLOPs (three adds, one multiply) against either

* ``stencil-naive`` — row-order traversal whose three neighbour rows fall
  out of cache between uses, so the model charges ~3 grid reads plus the
  write-back per sweep (arithmetic intensity ~0.25 FLOP/byte), or
* ``stencil-blocked`` — cache-tiled traversal that reads each point
  essentially once (~0.5 FLOP/byte) and streams closer to the link peak.

That places the stencil between STREAM (~0.08) and large GEMM (hundreds) on
the roofline — the mid-intensity point of the workload suite.  Like every
plugin, the module is self-contained: spec, result, cost model, executor,
codec, sweep semantics and CLI rendering, registered in one call.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.calibration.stream import stream_power_draws
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
    "STENCIL_IMPL_KEYS",
    "StencilSpec",
    "StencilResult",
    "lower_stencil_group",
    "run_stencil_spec",
    "STENCIL_WORKLOAD",
]

#: The two traversal variants of the study.
STENCIL_IMPL_KEYS: tuple[str, ...] = ("stencil-naive", "stencil-blocked")

DEFAULT_STENCIL_SIZES: tuple[int, ...] = (256, 512, 1024, 2048)
DEFAULT_STENCIL_ITERATIONS = 10
DEFAULT_STENCIL_REPEATS = 5

_ELEMENT_BYTES = 4  # FP32 grid
_FLOPS_PER_POINT = 4.0  # three adds + one multiply per updated point

#: Effective grid reads per sweep: the naive traversal re-fetches the
#: neighbour rows it already saw; the blocked traversal reads ~once.
_READ_FACTOR = {"stencil-naive": 3.0, "stencil-blocked": 1.0}

#: Fraction of the link the access pattern sustains.
_MEMORY_EFFICIENCY = {"stencil-naive": 0.55, "stencil-blocked": 0.85}

_COMPUTE_EFFICIENCY = 0.5  # of the SIMD peak; neighbour dependencies stall
_OVERHEAD_S = 30e-6  # OpenMP-style fork/join per repetition
_NOISE_SIGMA = 0.010

#: Numerics run on a capped grid so FULL sessions stay quick.
_NUMERICS_MAX_N = 128
_NUMERICS_ITERATIONS = 3
_NUMERICS_TILE = 32


@dataclasses.dataclass(frozen=True)
class StencilSpec(ExperimentSpec):
    """One stencil cell: ``repeats`` timed runs of ``iterations`` Jacobi sweeps."""

    impl_key: str = "stencil-blocked"
    n: int = 0
    iterations: int = DEFAULT_STENCIL_ITERATIONS
    repeats: int = DEFAULT_STENCIL_REPEATS

    kind = "stencil"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.impl_key not in STENCIL_IMPL_KEYS:
            raise ConfigurationError(
                f"stencil implementation must be one of {STENCIL_IMPL_KEYS}, "
                f"got {self.impl_key!r}"
            )
        if self.n < 3:
            raise ConfigurationError("grid dimension must be >= 3")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")


@dataclasses.dataclass(frozen=True)
class StencilResult:
    """All repetitions of one stencil cell."""

    chip_name: str
    impl_key: str
    n: int
    iterations: int
    flop_count: int
    bytes_moved: float
    theoretical_gbs: float
    elapsed_ns: tuple[int, ...]  # one timing per repetition, in order
    verified: bool | None = None
    #: Modelled draw (W) while the sweep runs — the simulator's thermally
    #: clamped total (:func:`repro.sim.vectorized.effective_draw_w`).
    #: ``None`` on envelopes persisted before the draw was surfaced.
    power_w: float | None = None

    def __post_init__(self) -> None:
        check_elapsed_ns(self.elapsed_ns)
        if self.flop_count <= 0 or self.bytes_moved <= 0:
            raise ConfigurationError("stencil work content must be positive")
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
    def best_mcups(self) -> float:
        """Peak million cell-updates per second (the stencil literature metric)."""
        updates = (self.n - 2) * (self.n - 2) * self.iterations
        return updates / min(self.elapsed_ns) * 1e3

    @property
    def best_gbs(self) -> float:
        """Peak achieved grid traffic bandwidth (GB/s)."""
        return self.bytes_moved / min(self.elapsed_ns)

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of modelled grid traffic."""
        return self.flop_count / self.bytes_moved


def _jacobi_step(grid: np.ndarray) -> np.ndarray:
    """One full-array 5-point Jacobi sweep over the interior."""
    return 0.25 * (
        grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
    )


def _jacobi_step_blocked(grid: np.ndarray, tile: int) -> np.ndarray:
    """The same sweep computed tile-by-tile (the cache-blocked traversal)."""
    m = grid.shape[0] - 2
    out = np.empty((m, m), dtype=grid.dtype)
    for i0 in range(0, m, tile):
        for j0 in range(0, m, tile):
            i1, j1 = min(i0 + tile, m), min(j0 + tile, m)
            block = grid[i0 : i1 + 2, j0 : j1 + 2]
            out[i0:i1, j0:j1] = 0.25 * (
                block[:-2, 1:-1]
                + block[2:, 1:-1]
                + block[1:-1, :-2]
                + block[1:-1, 2:]
            )
    return out


def _numerics_verified(spec: StencilSpec) -> bool:
    """Relax a capped seeded grid both ways and compare the trajectories."""
    m = min(spec.n, _NUMERICS_MAX_N)
    rng = np.random.default_rng([spec.seed, m])
    grid_a = rng.standard_normal((m, m)).astype(np.float64)
    grid_b = grid_a.copy()
    for _ in range(min(spec.iterations, _NUMERICS_ITERATIONS)):
        grid_a[1:-1, 1:-1] = _jacobi_step(grid_a)
        grid_b[1:-1, 1:-1] = _jacobi_step_blocked(grid_b, _NUMERICS_TILE)
    return bool(np.allclose(grid_a, grid_b, rtol=1e-12, atol=1e-12))


def lower_stencil_group(machine, specs: Sequence[StencilSpec]) -> LoweredGroup:
    """Lower stencil cells of one (chip, traversal, repeats) group.

    Grid sizes and sweep counts are columns over the group: one repetition
    is ``iterations`` sweeps of the interior, its cost computed once for
    every cell, each repeating its one op.  ``machine`` is a
    :class:`~repro.sim.machine.Machine` or a
    :class:`~repro.sim.vectorized.VectorContext`; both the scalar executor
    (a group of one) and the vectorized backend evaluate this one lowering.
    """
    chip = machine.chip
    impl_key, repeats = specs[0].impl_key, specs[0].repeats
    n = spec_column(specs, "n")
    iterations = spec_column(specs, "iterations")
    points = ((n - 2) * (n - 2)).astype(np.float64) * iterations
    grid_bytes = points * _ELEMENT_BYTES
    flops = (points * _FLOPS_PER_POINT).astype(np.float64)
    bytes_read = (grid_bytes * _READ_FACTOR[impl_key]).astype(np.float64)
    bytes_written = grid_bytes.astype(np.float64)

    verified: list = [None] * len(specs)
    if machine.numerics.policy is not NumericsPolicy.MODEL_ONLY:
        verified = [_numerics_verified(spec) for spec in specs]

    draws = stream_power_draws(chip, "cpu")
    power_w = effective_draw_w(machine.thermal, draws)
    chip_name = chip.name
    theoretical = chip.memory.bandwidth_gbs
    cells = list(
        zip(
            n.tolist(),
            iterations.tolist(),
            flops.tolist(),
            (bytes_read + bytes_written).tolist(),
            verified,
        )
    )

    def assemble(starts, ends) -> list[StencilResult]:
        return [
            StencilResult(
                chip_name=chip_name,
                impl_key=impl_key,
                n=size,
                iterations=sweeps,
                flop_count=int(work),
                bytes_moved=moved,
                theoretical_gbs=theoretical,
                elapsed_ns=elapsed_ns,
                verified=checked,
                power_w=power_w,
            )
            for (size, sweeps, work, moved, checked), elapsed_ns in zip(
                cells, rounded_elapsed_ns(starts, ends)
            )
        ]

    return LoweredGroup(
        seeds=[spec.seed for spec in specs],
        thermal=machine.thermal,
        ops=OpColumns(
            engine=EngineKind.CPU_SIMD,
            label=lambda slot: f"stencil/{impl_key}/n={specs[slot].n}",
            noise_keys=[
                f"stencil/{chip_name}/{impl_key}/n={spec.n}/it={spec.iterations}"
                for spec in specs
            ],
            flops=flops,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            peak_flops=machine.peak_flops(EngineKind.CPU_SIMD),
            peak_bytes_per_s=machine.memory_bandwidth_bytes_per_s(),
            compute_efficiency=_COMPUTE_EFFICIENCY,
            memory_efficiency=_MEMORY_EFFICIENCY[impl_key],
            overhead_s=_OVERHEAD_S,
            power_draws_w=draws,
            noise_sigma=_NOISE_SIGMA,
        ),
        length=repeats,
        assemble=assemble,
    )


def run_stencil_spec(machine: Machine, spec: StencilSpec) -> StencilResult:
    """Execute one stencil cell on ``machine`` (its group-of-one lowering)."""
    return run_lowered_sequence(
        machine, lowered_cell(lower_stencil_group, machine, spec)
    )


def _result_to_dict(result: StencilResult) -> dict[str, Any]:
    return {
        "type": "stencil",
        "chip_name": result.chip_name,
        "impl_key": result.impl_key,
        "n": result.n,
        "iterations": result.iterations,
        "flop_count": result.flop_count,
        "bytes_moved": result.bytes_moved,
        "theoretical_gbs": result.theoretical_gbs,
        "elapsed_ns": list(result.elapsed_ns),
        "verified": result.verified,
        "power_w": result.power_w,
    }


def _result_from_dict(data: Mapping[str, Any]) -> StencilResult:
    power_w = data.get("power_w")
    return StencilResult(
        chip_name=data["chip_name"],
        impl_key=data["impl_key"],
        n=int(data["n"]),
        iterations=int(data["iterations"]),
        flop_count=int(data["flop_count"]),
        bytes_moved=float(data["bytes_moved"]),
        theoretical_gbs=float(data["theoretical_gbs"]),
        elapsed_ns=elapsed_ns_from_list(data["elapsed_ns"]),
        verified=data.get("verified"),
        power_w=float(power_w) if power_w is not None else None,
    )


def _sweep_cells(sweep: SweepSpec) -> Iterator[StencilSpec]:
    from repro.calibration import paper

    repeats = (
        sweep.repeats if sweep.repeats is not None else DEFAULT_STENCIL_REPEATS
    )
    return iter_axes(
        chips=sweep.chips or paper.CHIPS,
        variants=sweep.impl_keys or STENCIL_IMPL_KEYS,
        sizes=sweep.sizes or DEFAULT_STENCIL_SIZES,
        make_spec=lambda chip, impl_key, n: StencilSpec(
            chip=chip,
            seed=sweep.seed,
            numerics=sweep.numerics,
            impl_key=impl_key,
            n=n,
            repeats=repeats,
        ),
    )


def _sample_variants(seed: int, count: int) -> tuple[StencilSpec, ...]:
    return variant_grid(
        lambda rng: StencilSpec(
            chip=rng.choice(("M1", "M2", "M3", "M4")),
            seed=rng.randrange(1 << 16),
            numerics=rng.choice((None, "full", "sampled", "model-only")),
            impl_key=rng.choice(STENCIL_IMPL_KEYS),
            n=rng.choice(DEFAULT_STENCIL_SIZES),
            iterations=rng.randint(1, DEFAULT_STENCIL_ITERATIONS),
            repeats=rng.randint(1, DEFAULT_STENCIL_REPEATS),
        ),
        seed,
        count,
    )


#: The registered stencil workload (mid-intensity roofline point).
STENCIL_WORKLOAD: Workload = register_workload(
    Workload(
        kind="stencil",
        display_name="2D stencil (Jacobi)",
        description="5-point Jacobi relaxation, cache-blocked vs naive traversal",
        spec_cls=StencilSpec,
        result_cls=StencilResult,
        execute=run_stencil_spec,
        result_to_dict=_result_to_dict,
        result_from_dict=_result_from_dict,
        sweep_cells=_sweep_cells,
        sample_spec=lambda: StencilSpec(
            chip="M1", impl_key="stencil-blocked", n=256, iterations=2, repeats=2
        ),
        cell_label=lambda spec: f"{spec.chip} {spec.impl_key} n={spec.n}",
        summary_line=lambda spec, result: (
            f"{spec.chip:4s} {spec.impl_key:16s} n={spec.n:<6d} "
            f"{result.best_mcups:10.1f} MCUP/s  "
            f"{result.best_gbs:7.1f} GB/s"
        ),
        impl_keys=STENCIL_IMPL_KEYS,
        sample_variants=_sample_variants,
        lower_group=lower_stencil_group,
        metrics={
            "gflops": lambda spec, r: r.best_gflops,
            "mean_gflops": lambda spec, r: r.mean_gflops,
            "gbs": lambda spec, r: r.best_gbs,
            "mcups": lambda spec, r: r.best_mcups,
            "elapsed_s": lambda spec, r: best_elapsed_s(r),
            **modelled_power_metrics(),
        },
    )
)
