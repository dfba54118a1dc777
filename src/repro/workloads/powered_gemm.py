"""Built-in powered-GEMM workload (Figures 3-4), wired as a registry plugin.

Same shape as :mod:`repro.workloads.gemm` — spec class and executor body
stay in :mod:`repro.experiments` — plus the standalone codec for the nested
:class:`~repro.core.results.PowerMeasurement` records, which serialize under
their own ``type="power"`` tag.  Under the ``model-only`` numerics policy
the piggybacked powermetrics protocol reduces to a closed form — one
warm-up sleep plus one calibrated operation per repetition, with both
power rails averaged over exactly the operation's own window — so
:func:`lower_powered_gemm_spec` replays it as a
:class:`~repro.sim.vectorized.LoweredSequence`, including the tool's
``%.0f``/``%.2f`` render-then-parse rounding.  Cells under ``full`` or
``sampled`` numerics fall back to the scalar engine per cell.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.calibration import paper
from repro.core.gemm.registry import get_implementation, paper_implementation_keys
from repro.core.results import GemmResult, PoweredGemmResult, PowerMeasurement
from repro.errors import ProtocolError, UnsupportedProblemError
from repro.experiments.executor import run_powered_gemm_spec
from repro.experiments.specs import PoweredGemmSpec, SweepSpec
from repro.sim.policy import NumericsPolicy
from repro.sim.vectorized import LoweredOp, LoweredSequence
from repro.soc.power import PowerComponent
from repro.workloads.base import (
    Workload,
    best_elapsed_s,
    iter_axes,
    variant_grid,
)
from repro.workloads.gemm import (
    _scalar_gemm_operation,
    cell_is_supported,
    gemm_result_from_dict,
    gemm_result_to_dict,
)
from repro.workloads.registry import register_result_codec, register_workload

__all__ = [
    "POWERED_GEMM_WORKLOAD",
    "power_measurement_to_dict",
    "power_measurement_from_dict",
    "lower_powered_gemm_spec",
]


def power_measurement_to_dict(m: PowerMeasurement) -> dict[str, Any]:
    """Serialize one powermetrics window to plain data."""
    return {
        "type": "power",
        "cpu_mw": m.cpu_mw,
        "gpu_mw": m.gpu_mw,
        "elapsed_ms": m.elapsed_ms,
    }


def power_measurement_from_dict(data: Mapping[str, Any]) -> PowerMeasurement:
    """Rebuild a :class:`PowerMeasurement` from its plain-data form."""
    return PowerMeasurement(
        cpu_mw=float(data["cpu_mw"]),
        gpu_mw=float(data["gpu_mw"]),
        elapsed_ms=float(data["elapsed_ms"]),
    )


def _powered_to_dict(result: PoweredGemmResult) -> dict[str, Any]:
    return {
        "type": "powered-gemm",
        "gemm": gemm_result_to_dict(result.gemm),
        "measurements": [power_measurement_to_dict(m) for m in result.measurements],
    }


def _powered_from_dict(data: Mapping[str, Any]) -> PoweredGemmResult:
    return PoweredGemmResult(
        gemm=gemm_result_from_dict(data["gemm"]),
        measurements=tuple(
            power_measurement_from_dict(m) for m in data["measurements"]
        ),
    )


# -- model-only lowering ----------------------------------------------------
#
# One protocol pass per repetition on the cumulative machine: the tool's
# start() and siginfo() never advance the clock, so each repetition is a
# 2.0 s warm-up sleep followed by exactly the same calibrated operation
# plain GEMM issues.  Both SIGINFO samples bracket the operation's own
# window, so ``component_average_mw`` reduces to a closed form: an active
# rail's one interval spans the window exactly (average == clamped draw)
# and an inactive rail integrates its idle floor — both written below as
# the recorder's literal ``window * w / window`` expression so the lowered
# floats round through the tool's ``%.0f``/``%.2f`` text identically.


#: Seed-independent repetition ops per cell shape (see gemm's cache notes).
_POWERED_OPS_CACHE: "dict[tuple[str, str, int, int], tuple[LoweredOp, ...] | None]" = {}


def _lowered_powered_ops(
    chip, impl_key: str, n: int, repeats: int
) -> "tuple[LoweredOp, ...] | None":
    key = (chip.name, impl_key, n, repeats)
    try:
        return _POWERED_OPS_CACHE[key]
    except KeyError:
        pass
    operation = _scalar_gemm_operation(chip, impl_key, n)
    ops = (
        None
        if operation is None
        else (
            LoweredOp.from_operation(
                operation, pre_advance_s=paper.POWERMETRICS_WARMUP_S
            ),
        )
        * repeats
    )
    _POWERED_OPS_CACHE[key] = ops
    return ops


def lower_powered_gemm_spec(
    machine, spec: PoweredGemmSpec
) -> "LoweredSequence | None":
    """Lower one Figure-3/4 cell to its model-only protocol sequence.

    Returns ``None`` — the scalar-fallback signal — when the cell runs
    real numerics (any policy but MODEL_ONLY) or uses an extension
    implementation outside the Table-2 catalog.  Unsupported cells raise
    the same :class:`UnsupportedProblemError` the scalar executor raises.
    """
    if machine.numerics.policy is not NumericsPolicy.MODEL_ONLY:
        return None
    impl = get_implementation(spec.impl_key)
    if not impl.supports(machine, spec.n):
        raise UnsupportedProblemError(
            f"{impl.key} does not execute n={spec.n} on {machine.chip.name}"
        )
    ops = _lowered_powered_ops(machine.chip, impl.key, spec.n, spec.repeats)
    if ops is None:
        return None

    impl_key = impl.key
    chip_name = machine.chip.name
    n = spec.n
    flop_count = paper.gemm_flop_count(spec.n)
    envelope = machine.envelope

    # The recorder stores the *clamped* draw; replicate machine.execute's
    # clamping (same summation order — the draws mapping is shared).
    draws = ops[0].power_draws_w
    requested = sum(draws.values())
    clamp = machine.thermal.clamp_factor(requested)
    if clamp < 1.0:
        recorded = {comp: watts * clamp for comp, watts in draws.items()}
    else:
        recorded = dict(draws)
    cpu_rail = recorded.get(
        PowerComponent.CPU, envelope.idle_watts(PowerComponent.CPU)
    )
    gpu_rail = recorded.get(
        PowerComponent.GPU, envelope.idle_watts(PowerComponent.GPU)
    )

    def assemble(
        windows: "tuple[tuple[float, float], ...]",
    ) -> PoweredGemmResult:
        measurements = []
        for start, end in windows:
            window = end - start
            elapsed_ms = float(f"{window * 1e3:.2f}")
            if elapsed_ms <= 0.0:
                raise ProtocolError(
                    "measurement window is empty — the workload consumed no "
                    "simulated time"
                )
            cpu_mw = float(f"{window * cpu_rail / window * 1e3:.0f}")
            gpu_mw = float(f"{window * gpu_rail / window * 1e3:.0f}")
            measurements.append(
                PowerMeasurement(
                    cpu_mw=cpu_mw, gpu_mw=gpu_mw, elapsed_ms=elapsed_ms
                )
            )
        gemm = GemmResult(
            impl_key=impl_key,
            chip_name=chip_name,
            n=n,
            flop_count=flop_count,
            elapsed_ns=tuple(
                max(1, int(m.elapsed_ms * 1e6)) for m in measurements
            ),
        )
        return PoweredGemmResult(gemm=gemm, measurements=tuple(measurements))

    return LoweredSequence(
        seed=spec.seed, thermal=machine.thermal, ops=ops, assemble=assemble
    )


def _sweep_cells(sweep: SweepSpec) -> Iterator[PoweredGemmSpec]:
    repeats = sweep.repeats if sweep.repeats is not None else paper.GEMM_REPEATS
    return iter_axes(
        chips=sweep.chips or paper.CHIPS,
        variants=sweep.impl_keys or paper_implementation_keys(),
        sizes=sweep.sizes or paper.POWER_SIZES,
        make_spec=lambda chip, impl_key, n: PoweredGemmSpec(
            chip=chip,
            seed=sweep.seed,
            numerics=sweep.numerics,
            impl_key=impl_key,
            n=n,
            repeats=repeats,
        ),
        cell_filter=cell_is_supported if sweep.skip_unsupported else None,
    )


def _sample_spec() -> PoweredGemmSpec:
    return PoweredGemmSpec(chip="M1", impl_key="gpu-mps", n=256, repeats=2)


def _sample_variants(seed: int, count: int) -> tuple[PoweredGemmSpec, ...]:
    return variant_grid(
        lambda rng: PoweredGemmSpec(
            chip=rng.choice(paper.CHIPS),
            seed=rng.randrange(1 << 16),
            numerics=rng.choice((None, "full", "sampled", "model-only")),
            impl_key=rng.choice(paper_implementation_keys()),
            n=rng.choice(paper.GEMM_SIZES),
            repeats=rng.randint(1, paper.GEMM_REPEATS),
        ),
        seed,
        count,
    )


register_result_codec(
    "power", PowerMeasurement, power_measurement_to_dict, power_measurement_from_dict
)

#: The registered power-study workload (Figures 3-4: draw and efficiency).
POWERED_GEMM_WORKLOAD: Workload = register_workload(
    Workload(
        kind="powered-gemm",
        display_name="Powered GEMM (Figures 3-4)",
        description="GEMM timing with the piggybacked powermetrics protocol",
        spec_cls=PoweredGemmSpec,
        result_cls=PoweredGemmResult,
        execute=lambda machine, spec: run_powered_gemm_spec(machine, spec),
        result_to_dict=_powered_to_dict,
        result_from_dict=_powered_from_dict,
        sweep_cells=_sweep_cells,
        sample_spec=_sample_spec,
        cell_label=lambda spec: f"{spec.chip} {spec.impl_key} n={spec.n}",
        summary_line=lambda spec, result: (
            f"{spec.chip:4s} {spec.impl_key:16s} n={spec.n:<6d} "
            f"{result.mean_combined_w:7.2f} W  "
            f"{result.efficiency_gflops_per_w:8.1f} GFLOPS/W"
        ),
        impl_keys=paper_implementation_keys(),
        sample_variants=_sample_variants,
        vectorized_body=lower_powered_gemm_spec,
        metrics={
            # The measured draw (section-3.3 protocol) backs the power
            # metrics here; the modelled workloads derive theirs from the
            # simulator's clamped draw instead.
            "gflops": lambda spec, r: r.gemm.best_gflops,
            "mean_gflops": lambda spec, r: r.gemm.mean_gflops,
            "elapsed_s": lambda spec, r: best_elapsed_s(r.gemm),
            "power_w": lambda spec, r: r.mean_combined_w,
            "power_mw": lambda spec, r: r.mean_combined_mw,
            "gflops_per_w": lambda spec, r: r.efficiency_gflops_per_w,
            "joules": lambda spec, r: (
                r.mean_combined_w * best_elapsed_s(r.gemm)
            ),
        },
    )
)
