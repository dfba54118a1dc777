"""Built-in powered-GEMM workload (Figures 3-4), wired as a registry plugin.

Same shape as :mod:`repro.workloads.gemm` — spec class and executor body
stay in :mod:`repro.experiments` — plus the standalone codec for the nested
:class:`~repro.core.results.PowerMeasurement` records, which serialize under
their own ``type="power"`` tag.  The piggybacked powermetrics protocol
reduces to a closed form — one warm-up sleep plus one calibrated operation
per repetition, with both power rails averaged over exactly the
operation's own window — so :func:`lower_powered_gemm_group` replays it as
a :class:`~repro.sim.vectorized.LoweredGroup` holding plain GEMM's own
repetition rows behind a per-op warm-up, including the tool's
``%.0f``/``%.2f`` render-then-parse rounding, under every numerics profile.
The result carries no ``verified`` flag, so no numerics run at all.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.calibration import paper
from repro.core.gemm.registry import get_implementation, paper_implementation_keys
from repro.core.results import GemmResult, PoweredGemmResult, PowerMeasurement
from repro.errors import ProtocolError
from repro.experiments.executor import run_powered_gemm_spec
from repro.experiments.specs import PoweredGemmSpec, SweepSpec
from repro.sim.vectorized import LoweredGroup
from repro.soc.power import PowerComponent
from repro.workloads.base import (
    Workload,
    best_elapsed_s,
    iter_axes,
    variant_grid,
)
from repro.workloads.gemm import (
    cell_is_supported,
    gemm_result_from_dict,
    gemm_result_to_dict,
    gemm_rows,
)
from repro.workloads.registry import register_result_codec, register_workload

__all__ = [
    "POWERED_GEMM_WORKLOAD",
    "power_measurement_to_dict",
    "power_measurement_from_dict",
    "lower_powered_gemm_group",
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


# -- lowering ----------------------------------------------------------------
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


def _rails_mw(machine, ops) -> tuple[float, float]:
    """The (CPU, GPU) rail draws (W) the recorder holds while ``ops[0]`` runs.

    The recorder stores the *clamped* draw; this replicates
    ``machine.execute``'s clamping (same summation order — the draws
    mapping is shared), and an inactive rail reads its idle floor.
    """
    envelope = machine.envelope
    draws = ops[0].power_draws_w
    requested = sum(draws.values())
    clamp = machine.thermal.clamp_factor(requested)
    if clamp < 1.0:
        recorded = {comp: watts * clamp for comp, watts in draws.items()}
    else:
        recorded = dict(draws)
    return (
        recorded.get(PowerComponent.CPU, envelope.idle_watts(PowerComponent.CPU)),
        recorded.get(PowerComponent.GPU, envelope.idle_watts(PowerComponent.GPU)),
    )


def lower_powered_gemm_group(machine, specs: Sequence[PoweredGemmSpec]) -> LoweredGroup:
    """Lower Figure-3/4 cells of one (chip, implementation, repeats) group.

    The one definition of a cell's timing and power, evaluated by the
    scalar executor (a group of one) and the vectorized backend alike
    under every numerics profile: each cell holds plain GEMM's memoized
    repetition row of its size behind the per-op warm-up.  Unsupported
    cells raise the same :class:`~repro.errors.UnsupportedProblemError`
    the Table-2 classes raise.
    """
    impl = get_implementation(specs[0].impl_key)
    rows, slots = gemm_rows(machine, impl, specs)
    rails = [_rails_mw(machine, row) for row in rows]
    impl_key = impl.key
    chip_name = machine.chip.name

    def assemble(starts, ends) -> list[PoweredGemmResult]:
        results = []
        # the tool formats Python floats: one tolist() of the windows
        for spec, slot, windows in zip(specs, slots, (ends - starts).tolist()):
            cpu_rail, gpu_rail = rails[slot]
            measurements = []
            for window in windows:
                elapsed_ms = float(f"{window * 1e3:.2f}")
                if elapsed_ms <= 0.0:
                    raise ProtocolError(
                        "measurement window is empty — the workload consumed "
                        "no simulated time"
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
                n=spec.n,
                flop_count=paper.gemm_flop_count(spec.n),
                elapsed_ns=tuple(
                    max(1, int(m.elapsed_ms * 1e6)) for m in measurements
                ),
            )
            results.append(
                PoweredGemmResult(gemm=gemm, measurements=tuple(measurements))
            )
        return results

    return LoweredGroup(
        seeds=[spec.seed for spec in specs],
        thermal=machine.thermal,
        ops=rows,
        length=specs[0].repeats,
        assemble=assemble,
        slots=slots,
        pre_advance_s=paper.POWERMETRICS_WARMUP_S,
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
        lower_group=lower_powered_gemm_group,
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
