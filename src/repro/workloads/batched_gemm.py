"""Batched-GEMM workload plugin: many small matrices, dispatch-overhead bound.

``batch`` independent ``n x n`` FP32 multiplications per repetition, with
``n`` small (16-128).  At these sizes the roofline busy time is tiny and
the fixed dispatch cost — the ``overhead_s`` term of
:class:`~repro.sim.engine.Operation` — dominates, which is exactly the
regime the paper's Figure 2 hints at ("GPU implementations are less optimal
at smaller sizes for their large overhead").  Three variants span it:

* ``gpu-looped`` — one Metal command buffer per matrix: the full ~150 us
  round trip is paid ``batch`` times;
* ``gpu-batched`` — one encoded batch: a single round trip plus a ~0.2 us
  per-matrix encode cost;
* ``cpu-accelerate-looped`` — an Accelerate call per matrix: a few
  microseconds each, the low-overhead CPU reference.

Self-contained registry plugin: spec, result, cost model, executor, codec,
sweep semantics and CLI rendering, registered in one call.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Iterator, Mapping

import numpy as np

from repro.calibration.gemm import gemm_power_draws
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
from repro.sim.roofline import OpCost
from repro.sim.vectorized import LoweredCell, effective_draw_w, run_lowered_cell
from repro.workloads.base import (
    Workload,
    best_elapsed_s,
    elapsed_ns_from_list,
    iter_axes,
    modelled_power_metrics,
    variant_grid,
)
from repro.workloads.registry import register_workload

__all__ = [
    "BATCHED_GEMM_IMPL_KEYS",
    "BatchedGemmSpec",
    "BatchedGemmResult",
    "lower_batched_gemm_spec",
    "run_batched_gemm_spec",
    "BATCHED_GEMM_WORKLOAD",
]


@dataclasses.dataclass(frozen=True)
class _BatchedImpl:
    """Dispatch model of one batched-GEMM variant."""

    engine: EngineKind
    setup_overhead_s: float  # paid once per repetition
    per_matrix_overhead_s: float  # paid per matrix in the batch
    power_impl_key: str  # calibration key whose draws this variant shows
    peak_efficiency: float  # compute efficiency at asymptotic n
    n_half: float  # efficiency ramp half-point


_IMPLS: dict[str, _BatchedImpl] = {
    "gpu-batched": _BatchedImpl(
        engine=EngineKind.GPU,
        setup_overhead_s=150e-6,
        per_matrix_overhead_s=0.2e-6,
        power_impl_key="gpu-mps",
        peak_efficiency=0.63,
        n_half=640.0,
    ),
    "gpu-looped": _BatchedImpl(
        engine=EngineKind.GPU,
        setup_overhead_s=0.0,
        per_matrix_overhead_s=150e-6,
        power_impl_key="gpu-mps",
        peak_efficiency=0.63,
        n_half=640.0,
    ),
    "cpu-accelerate-looped": _BatchedImpl(
        engine=EngineKind.AMX,
        setup_overhead_s=0.0,
        per_matrix_overhead_s=4e-6,
        power_impl_key="cpu-accelerate",
        peak_efficiency=0.88,
        n_half=256.0,
    ),
}

#: The batched-GEMM dispatch variants, in listing order.
BATCHED_GEMM_IMPL_KEYS: tuple[str, ...] = tuple(_IMPLS)

DEFAULT_BATCH = 256
DEFAULT_BATCHED_SIZES: tuple[int, ...] = (16, 32, 64, 128)
DEFAULT_BATCHED_REPEATS = 5

_ELEMENT_BYTES = 4  # FP32
_TRAFFIC_READ_FACTOR = 1.2
_MEMORY_EFFICIENCY = {EngineKind.GPU: 0.85, EngineKind.AMX: 0.80}
_NOISE_SIGMA = 0.012

#: Numerics verify a capped sub-batch so FULL sessions stay quick.
_NUMERICS_MAX_N = 128
_NUMERICS_MAX_BATCH = 4


@dataclasses.dataclass(frozen=True)
class BatchedGemmSpec(ExperimentSpec):
    """One batched-GEMM cell: ``repeats`` timed passes over ``batch`` matrices."""

    impl_key: str = "gpu-batched"
    n: int = 0
    batch: int = DEFAULT_BATCH
    repeats: int = DEFAULT_BATCHED_REPEATS

    kind = "batched-gemm"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.impl_key not in _IMPLS:
            raise ConfigurationError(
                f"batched-GEMM implementation must be one of "
                f"{BATCHED_GEMM_IMPL_KEYS}, got {self.impl_key!r}"
            )
        if self.n <= 0:
            raise ConfigurationError("matrix dimension must be positive")
        if self.batch < 1:
            raise ConfigurationError("batch must be >= 1")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")


@dataclasses.dataclass(frozen=True)
class BatchedGemmResult:
    """All repetitions of one batched-GEMM cell."""

    chip_name: str
    impl_key: str
    n: int
    batch: int
    flop_count: int  # whole batch, per repetition
    overhead_s: float  # modelled dispatch overhead per repetition
    elapsed_ns: tuple[int, ...]  # one timing per repetition, in order
    verified: bool | None = None
    #: Modelled draw (W) while the batch runs — the simulator's thermally
    #: clamped total (:func:`repro.sim.vectorized.effective_draw_w`).
    #: ``None`` on envelopes persisted before the draw was surfaced.
    power_w: float | None = None

    def __post_init__(self) -> None:
        check_elapsed_ns(self.elapsed_ns)
        if self.flop_count <= 0:
            raise ConfigurationError("FLOP count must be positive")
        if self.overhead_s < 0.0:
            raise ConfigurationError("overhead must be non-negative")
        if self.power_w is not None and self.power_w < 0.0:
            raise ConfigurationError("power draw cannot be negative")

    @property
    def repetitions(self) -> tuple[GemmRepetition, ...]:
        """Per-repetition records, derived from ``elapsed_ns``."""
        return repetition_view(self.elapsed_ns)

    @property
    def best_gflops(self) -> float:
        """Peak achieved GFLOPS (whole batch) over the repetitions."""
        return self.flop_count / self.best_elapsed_ns

    @property
    def mean_gflops(self) -> float:
        """Mean achieved GFLOPS over the repetitions."""
        return statistics.fmean(self.flop_count / ns for ns in self.elapsed_ns)

    @property
    def best_elapsed_ns(self) -> int:
        """Fastest repetition."""
        return min(self.elapsed_ns)

    @property
    def overhead_fraction(self) -> float:
        """Share of the best repetition spent in modelled dispatch overhead."""
        return min(1.0, self.overhead_s * 1e9 / self.best_elapsed_ns)


def _batch_cost(spec: BatchedGemmSpec) -> OpCost:
    """Roofline cost of one repetition: the whole batch's FLOPs and traffic."""
    n = spec.n
    matrix_bytes = float(_ELEMENT_BYTES * n * n)
    return OpCost(
        flops=float(spec.batch * n * n * (2 * n - 1)),
        bytes_read=spec.batch * 2.0 * matrix_bytes * _TRAFFIC_READ_FACTOR,
        bytes_written=spec.batch * matrix_bytes,
    )


def _numerics_verified(spec: BatchedGemmSpec) -> bool:
    """Multiply a capped seeded sub-batch two ways and compare."""
    n = min(spec.n, _NUMERICS_MAX_N)
    b = min(spec.batch, _NUMERICS_MAX_BATCH)
    rng = np.random.default_rng([spec.seed, n, b])
    a = rng.standard_normal((b, n, n))
    c = rng.standard_normal((b, n, n))
    return bool(
        np.allclose(a @ c, np.einsum("bij,bjk->bik", a, c), rtol=1e-10)
    )


def lower_batched_gemm_spec(machine, spec: BatchedGemmSpec) -> LoweredCell:
    """Lower one batched-GEMM cell to its repetition grid.

    ``machine`` is a :class:`~repro.sim.machine.Machine` or a
    :class:`~repro.sim.vectorized.VectorContext`; both the scalar executor
    and the vectorized backend evaluate this one lowering.
    """
    impl = _IMPLS[spec.impl_key]
    chip = machine.chip
    cost = _batch_cost(spec)
    overhead = (
        impl.setup_overhead_s + impl.per_matrix_overhead_s * spec.batch
    )
    efficiency = impl.peak_efficiency * spec.n / (spec.n + impl.n_half)

    verified: bool | None = None
    if machine.numerics.policy is not NumericsPolicy.MODEL_ONLY:
        verified = _numerics_verified(spec)

    draws = gemm_power_draws(chip, impl.power_impl_key, spec.n)
    power_w = effective_draw_w(machine.thermal, draws)

    def assemble(elapsed_ns: tuple[int, ...]) -> BatchedGemmResult:
        return BatchedGemmResult(
            chip_name=chip.name,
            impl_key=spec.impl_key,
            n=spec.n,
            batch=spec.batch,
            flop_count=int(cost.flops),
            overhead_s=overhead,
            elapsed_ns=elapsed_ns,
            verified=verified,
            power_w=power_w,
        )

    return LoweredCell(
        engine=impl.engine,
        label=f"batched-gemm/{spec.impl_key}/n={spec.n}/b={spec.batch}",
        cost=cost,
        peak_flops=machine.peak_flops(impl.engine),
        peak_bytes_per_s=machine.memory_bandwidth_bytes_per_s(),
        compute_efficiency=efficiency,
        memory_efficiency=_MEMORY_EFFICIENCY[impl.engine],
        overhead_s=overhead,
        power_draws_w=draws,
        noise_keys=(
            f"batched-gemm/{chip.name}/{spec.impl_key}/n={spec.n}/b={spec.batch}",
        )
        * spec.repeats,
        noise_sigma=_NOISE_SIGMA,
        seed=spec.seed,
        thermal=machine.thermal,
        assemble=assemble,
    )


def run_batched_gemm_spec(
    machine: Machine, spec: BatchedGemmSpec
) -> BatchedGemmResult:
    """Execute one batched-GEMM cell on ``machine``."""
    return run_lowered_cell(machine, lower_batched_gemm_spec(machine, spec))


def _result_to_dict(result: BatchedGemmResult) -> dict[str, Any]:
    return {
        "type": "batched-gemm",
        "chip_name": result.chip_name,
        "impl_key": result.impl_key,
        "n": result.n,
        "batch": result.batch,
        "flop_count": result.flop_count,
        "overhead_s": result.overhead_s,
        "elapsed_ns": list(result.elapsed_ns),
        "verified": result.verified,
        "power_w": result.power_w,
    }


def _result_from_dict(data: Mapping[str, Any]) -> BatchedGemmResult:
    power_w = data.get("power_w")
    return BatchedGemmResult(
        chip_name=data["chip_name"],
        impl_key=data["impl_key"],
        n=int(data["n"]),
        batch=int(data["batch"]),
        flop_count=int(data["flop_count"]),
        overhead_s=float(data["overhead_s"]),
        elapsed_ns=elapsed_ns_from_list(data["elapsed_ns"]),
        verified=data.get("verified"),
        power_w=float(power_w) if power_w is not None else None,
    )


def _sweep_cells(sweep: SweepSpec) -> Iterator[BatchedGemmSpec]:
    from repro.calibration import paper

    repeats = (
        sweep.repeats if sweep.repeats is not None else DEFAULT_BATCHED_REPEATS
    )
    return iter_axes(
        chips=sweep.chips or paper.CHIPS,
        variants=sweep.impl_keys or BATCHED_GEMM_IMPL_KEYS,
        sizes=sweep.sizes or DEFAULT_BATCHED_SIZES,
        make_spec=lambda chip, impl_key, n: BatchedGemmSpec(
            chip=chip,
            seed=sweep.seed,
            numerics=sweep.numerics,
            impl_key=impl_key,
            n=n,
            repeats=repeats,
        ),
    )


def _sample_variants(seed: int, count: int) -> tuple[BatchedGemmSpec, ...]:
    return variant_grid(
        lambda rng: BatchedGemmSpec(
            chip=rng.choice(("M1", "M2", "M3", "M4")),
            seed=rng.randrange(1 << 16),
            numerics=rng.choice((None, "full", "sampled", "model-only")),
            impl_key=rng.choice(BATCHED_GEMM_IMPL_KEYS),
            n=rng.choice(DEFAULT_BATCHED_SIZES),
            batch=rng.choice((1, 64, DEFAULT_BATCH, 1024)),
            repeats=rng.randint(1, DEFAULT_BATCHED_REPEATS),
        ),
        seed,
        count,
    )


#: The registered batched-GEMM workload (overhead-bound roofline point).
BATCHED_GEMM_WORKLOAD: Workload = register_workload(
    Workload(
        kind="batched-gemm",
        display_name="Batched GEMM",
        description="many small multiplications; dispatch overhead dominates",
        spec_cls=BatchedGemmSpec,
        result_cls=BatchedGemmResult,
        execute=run_batched_gemm_spec,
        result_to_dict=_result_to_dict,
        result_from_dict=_result_from_dict,
        sweep_cells=_sweep_cells,
        sample_spec=lambda: BatchedGemmSpec(
            chip="M1", impl_key="gpu-batched", n=32, batch=64, repeats=2
        ),
        cell_label=lambda spec: (
            f"{spec.chip} {spec.impl_key} n={spec.n} b={spec.batch}"
        ),
        summary_line=lambda spec, result: (
            f"{spec.chip:4s} {spec.impl_key:21s} n={spec.n:<4d} "
            f"b={spec.batch:<5d} {result.best_gflops:9.1f} GFLOPS  "
            f"(overhead {result.overhead_fraction:.0%})"
        ),
        impl_keys=BATCHED_GEMM_IMPL_KEYS,
        sample_variants=_sample_variants,
        vectorized_body=lower_batched_gemm_spec,
        metrics={
            "gflops": lambda spec, r: r.best_gflops,
            "mean_gflops": lambda spec, r: r.mean_gflops,
            "overhead_fraction": lambda spec, r: r.overhead_fraction,
            "elapsed_s": lambda spec, r: best_elapsed_s(r),
            **modelled_power_metrics(),
        },
    )
)
