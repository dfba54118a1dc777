"""GEMM calibration: (chip, implementation) -> simulator parameters.

For the four study chips the efficiency curves are anchored so that the
best-of-repeats GFLOPS at the paper's peak size reproduces Figure 2, and the
saturated power draws reproduce Figures 3-4.  For chips outside the catalog
(user-defined :class:`~repro.soc.chip.ChipSpec`) a generic per-implementation
profile keeps the library usable — custom chips get plausible, not calibrated,
results.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.calibration import paper
from repro.calibration import overrides as _overrides
from repro.errors import CalibrationError
from repro.sim.efficiency import EfficiencyCurve, LogisticCurve, PeakDecayCurve
from repro.sim.engine import EngineKind, Operation
from repro.sim.roofline import OpCost
from repro.soc.catalog import base_chip_name
from repro.soc.chip import ChipSpec
from repro.soc.power import PowerComponent

__all__ = [
    "GemmCalibration",
    "gemm_calibration",
    "gemm_flops",
    "gemm_power_draws",
    "build_gemm_operation",
    "GEMM_NOISE_GAIN",
    "KNOWN_IMPL_KEYS",
    "anchored_peak_gflops",
    "anchored_power_w",
    "anchored_overhead_s",
    "anchored_traffic_read_factor",
    "max_anchorable_peak_gflops",
]

#: Implementation keys understood by this calibration layer.
KNOWN_IMPL_KEYS: tuple[str, ...] = (
    "cpu-single",
    "cpu-omp",
    "cpu-accelerate",
    "gpu-naive",
    "gpu-cutlass",
    "gpu-mps",
    "ane-fp16",
    "gpu-fp64-emulated",
)

_ENGINE_FOR_IMPL: dict[str, EngineKind] = {
    "cpu-single": EngineKind.CPU_SCALAR,
    "cpu-omp": EngineKind.CPU_SIMD,
    "cpu-accelerate": EngineKind.AMX,
    "gpu-naive": EngineKind.GPU,
    "gpu-cutlass": EngineKind.GPU,
    "gpu-mps": EngineKind.GPU,
    "ane-fp16": EngineKind.ANE,
    "gpu-fp64-emulated": EngineKind.GPU,
}

#: Fixed dispatch overheads (seconds).  GPU command-buffer round trips cost
#: hundreds of microseconds; Accelerate calls a few microseconds; the OpenMP
#: fork/join barrier tens of microseconds.
_OVERHEAD_S: dict[str, float] = {
    "cpu-single": 2.0e-6,
    "cpu-omp": 30.0e-6,
    "cpu-accelerate": 4.0e-6,
    "gpu-naive": 250.0e-6,
    "gpu-cutlass": 250.0e-6,
    "gpu-mps": 150.0e-6,
    "ane-fp16": 500.0e-6,  # Core ML dispatch is heavyweight
    "gpu-fp64-emulated": 250.0e-6,
}

#: DRAM traffic factor applied to the 2 * 4n^2 input bytes: how many times
#: the inputs effectively cross the memory interface given the blocking
#: strategy (outputs counted once).
_TRAFFIC_READ_FACTOR: dict[str, float] = {
    "cpu-single": 12.0,
    "cpu-omp": 3.0,
    "cpu-accelerate": 1.2,
    "gpu-naive": 8.0,
    "gpu-cutlass": 4.0,
    "gpu-mps": 1.2,
    "ane-fp16": 1.2,
    "gpu-fp64-emulated": 2.4,
}

#: Link efficiency of the engine's path to unified memory.
_MEMORY_EFFICIENCY: dict[EngineKind, float] = {
    EngineKind.CPU_SCALAR: 0.60,
    EngineKind.CPU_SIMD: 0.80,
    EngineKind.AMX: 0.80,
    EngineKind.GPU: 0.85,
    EngineKind.ANE: 0.70,
}

#: Log-sigma of every calibrated GEMM operation's jitter.
GEMM_NOISE_SIGMA: float = 0.012

#: Noise gain of every calibrated GEMM operation: E[1/min f] over
#: ``paper.GEMM_REPEATS`` mean-corrected lognormal factors f at
#: ``GEMM_NOISE_SIGMA``, i.e. exp(s**2 / 2) * E[exp(s * M)] for M the maximum
#: of five standard normals (by quadrature).  With it the best of five
#: distinct draws reads the anchored peak on average, whatever a spec's
#: ``repeats``; at sigma 0 no draw is active and the gain never applies.
GEMM_NOISE_GAIN: float = 1.014159126415306

#: Peak GFLOPS targets for the study chips (Figure 2; CPU loop targets are
#: read off the figure, the rest are quoted in section 5.2).
_PEAK_GFLOPS: dict[str, dict[str, float]] = {
    "cpu-single": {"M1": 1.1, "M2": 1.25, "M3": 1.45, "M4": 1.6},
    "cpu-omp": {"M1": 5.5, "M2": 6.5, "M3": 7.5, "M4": 8.5},
    "cpu-accelerate": dict(paper.FIG2_PEAK_GFLOPS["cpu-accelerate"]),
    "gpu-naive": dict(paper.FIG2_PEAK_GFLOPS["gpu-naive"]),
    "gpu-cutlass": dict(paper.FIG2_PEAK_GFLOPS["gpu-cutlass"]),
    "gpu-mps": dict(paper.FIG2_PEAK_GFLOPS["gpu-mps"]),
}

#: Saturated power draws in watts for the study chips, chosen so that the
#: combined CPU+GPU figure reproduces Figures 3-4 (see DESIGN.md section 4).
#: Keys: implementation -> chip -> (cpu_w, gpu_w).
_POWER_TARGETS_W: dict[str, dict[str, tuple[float, float]]] = {
    "cpu-single": {
        "M1": (3.0, 0.0),
        "M2": (3.5, 0.0),
        "M3": (3.8, 0.0),
        "M4": (4.2, 0.0),
    },
    "cpu-omp": {
        "M1": (9.0, 0.0),
        "M2": (11.0, 0.0),
        "M3": (9.5, 0.0),
        "M4": (13.0, 0.0),
    },
    "cpu-accelerate": {
        "M1": (3.6, 0.0),
        "M2": (5.45, 0.0),
        "M3": (5.11, 0.0),
        "M4": (6.48, 0.0),
    },
    "gpu-naive": {
        "M1": (0.5, 4.5),
        "M2": (0.5, 7.0),
        "M3": (0.5, 6.5),
        "M4": (0.5, 11.3),
    },
    "gpu-cutlass": {
        "M1": (0.5, 8.0),
        "M2": (0.5, 10.0),
        "M3": (0.5, 9.0),
        "M4": (0.5, 19.3),
    },
    "gpu-mps": {
        "M1": (0.48, 6.0),
        "M2": (0.48, 5.1),
        "M3": (0.48, 4.9),
        "M4": (0.48, 8.3),
    },
    "ane-fp16": {
        "M1": (0.5, 0.0),
        "M2": (0.5, 0.0),
        "M3": (0.5, 0.0),
        "M4": (0.5, 0.0),
    },
    "gpu-fp64-emulated": {
        "M1": (0.5, 7.0),
        "M2": (0.5, 8.5),
        "M3": (0.5, 8.0),
        "M4": (0.5, 14.0),
    },
}

#: ANE draws its own rail; watts while active (efficient, section 2.3).
_ANE_POWER_W: dict[str, float] = {"M1": 3.0, "M2": 3.5, "M3": 3.8, "M4": 4.5}

#: DRAM draw while a GEMM streams operands (does not enter the CPU+GPU figure).
_DRAM_DRAW_W: float = 0.4

#: Extension implementations: efficiency relative to the engine peak.
_ANE_EFFICIENCY: float = 0.55
_FP64_EMU_SLOWDOWN: float = 20.0  # double-float arithmetic costs ~20x FP32


@dataclasses.dataclass(frozen=True)
class GemmCalibration:
    """Resolved simulator parameters for one (chip, implementation) pair."""

    impl_key: str
    engine: EngineKind
    curve: EfficiencyCurve
    overhead_s: float
    traffic_read_factor: float
    memory_efficiency: float
    power_cpu_w: float
    power_gpu_w: float
    power_ane_w: float
    power_ramp: EfficiencyCurve
    max_n: int | None
    noise_sigma: float = GEMM_NOISE_SIGMA

    def efficiency(self, n: int) -> float:
        """Compute efficiency (fraction of engine peak) at dimension ``n``."""
        return self.curve(float(n))

    def supports(self, n: int) -> bool:
        """Whether this implementation executes dimension ``n`` (section 4)."""
        return self.max_n is None or n <= self.max_n


def gemm_flops(n: int) -> int:
    """Paper's FLOP count for an n x n GEMM."""
    return paper.gemm_flop_count(n)


def _curve_family(impl_key: str) -> tuple[str, float, float]:
    """(family, x_half/rise, steepness) describing the ramp shape."""
    table = {
        "cpu-single": ("peak-decay", 40.0, 2.0),
        "cpu-omp": ("logistic", 128.0, 1.5),
        "cpu-accelerate": ("logistic", 256.0, 1.5),
        "gpu-naive": ("logistic", 512.0, 1.4),
        "gpu-cutlass": ("logistic", 512.0, 1.4),
        "gpu-mps": ("logistic", 640.0, 1.3),
        "ane-fp16": ("logistic", 640.0, 1.3),
        "gpu-fp64-emulated": ("logistic", 512.0, 1.4),
    }
    return table[impl_key]


def _reference_size(impl_key: str) -> int:
    """Size at which the paper's peak GFLOPS occurs."""
    if impl_key in ("cpu-single", "cpu-omp"):
        return paper.CPU_LOOP_MAX_N
    return paper.GEMM_SIZES[-1]


def _proto_curve_max(impl_key: str) -> float:
    """Max of the unit-peak ramp over the paper's size sweep."""
    family, x_half, steepness = _curve_family(impl_key)
    if family == "peak-decay":
        proto: EfficiencyCurve = PeakDecayCurve(
            peak=1.0,
            rise_half=x_half,
            decay_start=724.0,
            rise_steepness=steepness,
            decay_exponent=0.35,
        )
    else:
        proto = LogisticCurve(peak=1.0, x_half=x_half, steepness=steepness)
    sizes = [n for n in paper.GEMM_SIZES if n <= _reference_size(impl_key)]
    return max(proto(float(n)) for n in sizes)


def max_anchorable_peak_gflops(chip: ChipSpec, impl_key: str) -> float:
    """Largest peak-GFLOPS target the curve family can express for a chip.

    Targets above this would need a compute efficiency over 1.0 — the
    calibration search clamps its brackets here.
    """
    return _engine_peak_flops(chip, impl_key) * _proto_curve_max(impl_key) / 1e9


def _build_curve(impl_key: str, target_eff: float) -> EfficiencyCurve:
    """A curve whose maximum over the paper's size sweep equals ``target_eff``."""
    family, x_half, steepness = _curve_family(impl_key)
    proto_max = _proto_curve_max(impl_key)
    peak = target_eff / proto_max
    if not (0.0 < peak <= 1.0):
        raise CalibrationError(
            f"{impl_key}: derived peak efficiency {peak:.3f} outside (0, 1]; "
            f"check engine peak vs target"
        )
    if family == "peak-decay":
        return PeakDecayCurve(
            peak=peak,
            rise_half=x_half,
            decay_start=724.0,
            rise_steepness=steepness,
            decay_exponent=0.35,
        )
    return LogisticCurve(peak=peak, x_half=x_half, steepness=steepness)


def _engine_peak_flops(chip: ChipSpec, impl_key: str) -> float:
    engine = _ENGINE_FOR_IMPL[impl_key]
    if engine is EngineKind.CPU_SCALAR:
        return chip.performance_cluster.scalar_fp32_flops()
    if engine is EngineKind.CPU_SIMD:
        return chip.cpu_simd_fp32_flops()
    if engine is EngineKind.AMX:
        return chip.amx.peak_fp32_flops()
    if engine is EngineKind.GPU:
        return chip.gpu.peak_fp32_flops()
    if engine is EngineKind.ANE:
        return chip.neural_engine.peak_fp16_flops()
    raise CalibrationError(f"no engine peak for {impl_key}")


#: Generic target efficiencies for non-catalog chips, as a fraction of the
#: engine peak (plausible values drawn from the study-chip averages).
_GENERIC_EFFICIENCY: dict[str, float] = {
    "cpu-single": 0.17,
    "cpu-omp": 0.011,
    "cpu-accelerate": 0.88,
    "gpu-naive": 0.11,
    "gpu-cutlass": 0.065,
    "gpu-mps": 0.63,
    "ane-fp16": _ANE_EFFICIENCY,
    "gpu-fp64-emulated": 0.63 / _FP64_EMU_SLOWDOWN,
}

#: Generic utilisation of the power envelope for non-catalog chips.
_GENERIC_UTILISATION: dict[str, tuple[float, float]] = {
    "cpu-single": (0.25, 0.0),
    "cpu-omp": (0.75, 0.0),
    "cpu-accelerate": (0.35, 0.0),
    "gpu-naive": (0.04, 0.55),
    "gpu-cutlass": (0.04, 0.85),
    "gpu-mps": (0.04, 0.42),
    "ane-fp16": (0.04, 0.0),
    "gpu-fp64-emulated": (0.04, 0.65),
}


def anchored_peak_gflops(chip_name: str, impl_key: str) -> float:
    """The Figure-2 peak-GFLOPS anchor for a catalog chip (base-resolved).

    Raises :class:`CalibrationError` when no anchor exists for the pair.
    """
    targets = _PEAK_GFLOPS.get(impl_key, {})
    key = base_chip_name(chip_name)
    if key not in targets:
        raise CalibrationError(
            f"no anchored peak-GFLOPS target for ({chip_name!r}, {impl_key!r})"
        )
    return targets[key]


def anchored_power_w(chip_name: str, impl_key: str) -> float:
    """Combined CPU+GPU saturated watts anchor for a catalog chip.

    Raises :class:`CalibrationError` when no anchor exists for the pair.
    """
    table = _POWER_TARGETS_W.get(impl_key, {})
    key = base_chip_name(chip_name)
    if key not in table:
        raise CalibrationError(
            f"no anchored power target for ({chip_name!r}, {impl_key!r})"
        )
    cpu_w, gpu_w = table[key]
    return cpu_w + gpu_w


def anchored_overhead_s(impl_key: str) -> float:
    """Fixed dispatch overhead anchor (seconds) for an implementation."""
    try:
        return _OVERHEAD_S[impl_key]
    except KeyError:
        raise CalibrationError(
            f"no anchored overhead for implementation {impl_key!r}"
        ) from None


def anchored_traffic_read_factor(impl_key: str) -> float:
    """DRAM input-traffic factor anchor for an implementation."""
    try:
        return _TRAFFIC_READ_FACTOR[impl_key]
    except KeyError:
        raise CalibrationError(
            f"no anchored traffic factor for implementation {impl_key!r}"
        ) from None


def _effective_peak_gflops(chip: ChipSpec, impl_key: str) -> float | None:
    """Peak-GFLOPS target after overlay knobs; ``None`` when generic."""
    override = _overrides.knob_value(chip.name, f"gemm.peak_gflops.{impl_key}")
    if override is not None:
        return override
    targets = _PEAK_GFLOPS.get(impl_key, {})
    return targets.get(base_chip_name(chip.name))


def _target_efficiency(chip: ChipSpec, impl_key: str) -> float:
    peak = _engine_peak_flops(chip, impl_key)
    if impl_key == "ane-fp16":
        return _ANE_EFFICIENCY
    if impl_key == "gpu-fp64-emulated":
        base = _effective_peak_gflops(chip, "gpu-mps")
        if base is None:
            return _GENERIC_EFFICIENCY[impl_key]
        return (base * 1e9 / peak) / _FP64_EMU_SLOWDOWN
    target = _effective_peak_gflops(chip, impl_key)
    if target is None:
        return _GENERIC_EFFICIENCY[impl_key]
    return target * 1e9 / peak


def _power_targets(chip: ChipSpec, impl_key: str) -> tuple[float, float, float]:
    """(cpu_w, gpu_w, ane_w) saturated draws."""
    base_key = base_chip_name(chip.name)
    ane_w = 0.0
    if impl_key == "ane-fp16":
        ane_w = _ANE_POWER_W.get(base_key, 3.5)
    table = _POWER_TARGETS_W.get(impl_key, {})
    if base_key in table:
        cpu_w, gpu_w = table[base_key]
    else:
        cpu_u, gpu_u = _GENERIC_UTILISATION[impl_key]
        from repro.soc.power import default_envelope_for

        envelope = default_envelope_for(chip.name)
        cpu_w = envelope.component(PowerComponent.CPU).at_utilisation(cpu_u)
        gpu_w = envelope.component(PowerComponent.GPU).at_utilisation(gpu_u)
        # Utilisation 0 still returns the idle floor; suppress to zero so
        # purely inactive rails do not appear as active draws.
        if gpu_u == 0.0:
            gpu_w = 0.0
        if cpu_u == 0.0:
            cpu_w = 0.0
    # A combined-watts knob scales both rails proportionally: a single
    # powermetrics CPU+GPU observation cannot split them.
    override = _overrides.knob_value(chip.name, f"gemm.power_w.{impl_key}")
    if override is not None and (cpu_w + gpu_w) > 0.0:
        scale = override / (cpu_w + gpu_w)
        cpu_w *= scale
        gpu_w *= scale
    return cpu_w, gpu_w, ane_w


def _power_ramp(impl_key: str) -> EfficiencyCurve:
    """How quickly the draw saturates with problem size (Figure 3 growth)."""
    if impl_key.startswith("cpu"):
        return LogisticCurve(peak=1.0, x_half=96.0, steepness=1.2)
    return LogisticCurve(peak=1.0, x_half=640.0, steepness=1.2)


def gemm_calibration(chip: ChipSpec, impl_key: str) -> GemmCalibration:
    """Resolved calibration for a chip/implementation pair.

    Raises
    ------
    CalibrationError
        If the implementation key is unknown.
    """
    if impl_key not in KNOWN_IMPL_KEYS:
        raise CalibrationError(
            f"unknown GEMM implementation key {impl_key!r}; "
            f"known: {', '.join(KNOWN_IMPL_KEYS)}"
        )
    engine = _ENGINE_FOR_IMPL[impl_key]
    target_eff = _target_efficiency(chip, impl_key)
    curve = _build_curve(impl_key, target_eff)
    cpu_w, gpu_w, ane_w = _power_targets(chip, impl_key)
    max_n = paper.CPU_LOOP_MAX_N if impl_key in ("cpu-single", "cpu-omp") else None
    overhead_s = _overrides.knob_value(chip.name, f"gemm.overhead_s.{impl_key}")
    traffic = _overrides.knob_value(
        chip.name, f"gemm.traffic_read_factor.{impl_key}"
    )
    return GemmCalibration(
        impl_key=impl_key,
        engine=engine,
        curve=curve,
        overhead_s=_OVERHEAD_S[impl_key] if overhead_s is None else overhead_s,
        traffic_read_factor=(
            _TRAFFIC_READ_FACTOR[impl_key] if traffic is None else traffic
        ),
        memory_efficiency=_MEMORY_EFFICIENCY[engine],
        power_cpu_w=cpu_w,
        power_gpu_w=gpu_w,
        power_ane_w=ane_w,
        power_ramp=_power_ramp(impl_key),
        max_n=max_n,
    )


def gemm_power_draws(
    chip: ChipSpec, impl_key: str, n: int
) -> dict[PowerComponent, float]:
    """Absolute component draws (W) while the GEMM runs at size ``n``."""
    cal = gemm_calibration(chip, impl_key)
    ramp = cal.power_ramp(float(n))
    draws: dict[PowerComponent, float] = {}
    if cal.power_cpu_w > 0.0:
        draws[PowerComponent.CPU] = cal.power_cpu_w * ramp
    if cal.power_gpu_w > 0.0:
        draws[PowerComponent.GPU] = cal.power_gpu_w * ramp
    if cal.power_ane_w > 0.0:
        draws[PowerComponent.ANE] = cal.power_ane_w * ramp
    draws[PowerComponent.DRAM] = _DRAM_DRAW_W * ramp
    return draws


def build_gemm_operation(
    chip: ChipSpec,
    impl_key: str,
    n: int,
    *,
    label: str | None = None,
    element_bytes: int = 4,
    peak_flops_override: float | None = None,
) -> Operation:
    """The simulated operation behind one GEMM execution.

    ``element_bytes`` lets the FP16 (ANE) and emulated-FP64 paths account for
    their different traffic; ``peak_flops_override`` supports engines outside
    the chip spec (not used by the study implementations).  Every repetition
    reuses one noise key, so a machine draws a fresh counter per repetition,
    and the op carries :data:`GEMM_NOISE_GAIN`.
    """
    cal = gemm_calibration(chip, impl_key)
    if not cal.supports(n):
        raise CalibrationError(
            f"{impl_key} is excluded beyond n={cal.max_n} (section 4)"
        )
    input_bytes = 2.0 * element_bytes * n * n
    cost = OpCost(
        flops=float(gemm_flops(n)),
        bytes_read=cal.traffic_read_factor * input_bytes,
        bytes_written=float(element_bytes * n * n),
    )
    peak = (
        peak_flops_override
        if peak_flops_override is not None
        else _engine_peak_flops(chip, impl_key)
    )
    return Operation(
        engine=cal.engine,
        label=label or f"gemm/{impl_key}/n={n}",
        cost=cost,
        peak_flops=peak,
        peak_bytes_per_s=chip.memory.bandwidth_bytes_per_s(),
        compute_efficiency=cal.efficiency(n),
        memory_efficiency=cal.memory_efficiency,
        overhead_s=cal.overhead_s,
        power_draws_w=gemm_power_draws(chip, impl_key, n),
        noise_key=f"gemm/{chip.name}/{impl_key}/n={n}",
        noise_sigma=cal.noise_sigma,
        noise_gain=GEMM_NOISE_GAIN,
    )
