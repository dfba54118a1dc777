"""STREAM calibration: per-chip, per-kernel effective bandwidths.

Reproduces Figure 1: each chip reaches ~85 % of its theoretical unified-memory
bandwidth from both the CPU and the GPU, with the documented M2 CPU anomaly
(Copy and Scale trail Add and Triad by 20-30 GB/s, section 5.1).  The CPU
model additionally provides the OpenMP thread-scaling curve the paper sweeps
(1..physical cores, keeping the maximum), and the GPU model a ramp over the
array footprint (small buffers cannot saturate the fabric).

It is also the one place a STREAM dispatch is built:
:func:`cpu_stream_operations` and :func:`gpu_stream_operations` return the
simulator operations that the benchmark classes, the Metal shaders and the
workload lowerings all execute.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Mapping

from repro.calibration import overrides as _overrides
from repro.errors import CalibrationError
from repro.sim.engine import EngineKind, Operation
from repro.sim.roofline import OpCost
from repro.soc.catalog import base_chip_name, chip_memo
from repro.soc.chip import ChipSpec
from repro.soc.power import PowerComponent

__all__ = [
    "STREAM_ACCOUNTING",
    "STREAM_ELEMENT_BYTES",
    "STREAM_KERNELS",
    "StreamCalibration",
    "stream_calibration",
    "cpu_stream_bandwidth_gbs",
    "gpu_stream_bandwidth_gbs",
    "stream_power_draws",
    "cpu_stream_operations",
    "gpu_stream_operations",
]

#: stream.c's accounting per kernel, per element: (arrays read, arrays
#: written, FLOPs).  Copy and Scale move two arrays, Add and Triad three.
STREAM_ACCOUNTING: Mapping[str, tuple[int, int, int]] = MappingProxyType(
    {
        "copy": (1, 1, 0),
        "scale": (1, 1, 1),
        "add": (2, 1, 1),
        "triad": (2, 1, 2),
    }
)

#: Kernel names in the canonical STREAM order.
STREAM_KERNELS: tuple[str, ...] = tuple(STREAM_ACCOUNTING)

#: Array element size per target: FP64 in stream.c, FP32 in the MSL port.
STREAM_ELEMENT_BYTES: Mapping[str, int] = MappingProxyType({"cpu": 8, "gpu": 4})

#: Fixed dispatch overheads (seconds): an OpenMP parallel region, a Metal
#: command buffer.
_CPU_STREAM_OVERHEAD_S = 5e-6
_GPU_STREAM_OVERHEAD_S = 10e-6

#: Saturated CPU bandwidth targets in GB/s (Figure 1).  The M2 Copy/Scale
#: values encode the paper's unexplained CPU-link anomaly.
_CPU_TARGETS_GBS: dict[str, dict[str, float]] = {
    "M1": {"copy": 55.5, "scale": 56.2, "add": 58.1, "triad": 59.0},
    "M2": {"copy": 50.0, "scale": 52.0, "add": 76.5, "triad": 78.0},
    "M3": {"copy": 88.0, "scale": 89.0, "add": 91.0, "triad": 92.0},
    "M4": {"copy": 97.0, "scale": 98.5, "add": 101.0, "triad": 103.0},
}

#: Saturated GPU bandwidth targets in GB/s (Figure 1).
_GPU_TARGETS_GBS: dict[str, dict[str, float]] = {
    "M1": {"copy": 57.0, "scale": 58.0, "add": 59.5, "triad": 60.0},
    "M2": {"copy": 87.0, "scale": 88.5, "add": 90.0, "triad": 91.0},
    "M3": {"copy": 88.5, "scale": 89.5, "add": 91.5, "triad": 92.0},
    "M4": {"copy": 96.0, "scale": 97.0, "add": 99.0, "triad": 100.0},
}

#: Fractions of theoretical peak for non-catalog chips.
_GENERIC_CPU_FRACTION: dict[str, float] = {
    "copy": 0.82,
    "scale": 0.83,
    "add": 0.85,
    "triad": 0.86,
}
_GENERIC_GPU_FRACTION: dict[str, float] = {
    "copy": 0.87,
    "scale": 0.88,
    "add": 0.90,
    "triad": 0.91,
}

#: CPU thread-scaling shape: bw(T) ~ T / (T + c), renormalised to the target
#: at the full core count.
_THREAD_HALF_CORES: float = 1.2

#: GPU footprint ramp: bw(bytes) ~ bytes / (bytes + half).
_GPU_RAMP_HALF_BYTES: float = 256.0 * 1024.0

#: Saturated power draws in watts while STREAM runs.
_CPU_STREAM_POWER_W: dict[str, float] = {"M1": 2.2, "M2": 3.4, "M3": 3.0, "M4": 3.6}
_GPU_STREAM_POWER_W: dict[str, float] = {"M1": 3.2, "M2": 4.5, "M3": 4.2, "M4": 5.0}
_GPU_STREAM_HOST_CPU_W: float = 0.3
_STREAM_DRAM_W: float = 1.0

#: Repeat-to-repeat jitter for STREAM (tighter than GEMM; pure bandwidth).
STREAM_NOISE_SIGMA: float = 0.008


@dataclasses.dataclass(frozen=True)
class StreamCalibration:
    """Saturated per-kernel bandwidth targets for one chip."""

    chip_name: str
    cpu_targets_gbs: Mapping[str, float]
    gpu_targets_gbs: Mapping[str, float]

    def cpu_target(self, kernel: str) -> float:
        """Saturated CPU bandwidth target for one kernel (GB/s)."""
        return self.cpu_targets_gbs[_check_kernel(kernel)]

    def gpu_target(self, kernel: str) -> float:
        """Saturated GPU bandwidth target for one kernel (GB/s)."""
        return self.gpu_targets_gbs[_check_kernel(kernel)]

    def cpu_max_gbs(self) -> float:
        """Best CPU kernel target — the Figure-1 'up to' number."""
        return max(self.cpu_targets_gbs.values())

    def gpu_max_gbs(self) -> float:
        """Best GPU kernel target — the Figure-1 'up to' number."""
        return max(self.gpu_targets_gbs.values())


def _check_kernel(kernel: str) -> str:
    key = kernel.lower()
    if key not in STREAM_KERNELS:
        raise CalibrationError(
            f"unknown STREAM kernel {kernel!r}; known: {', '.join(STREAM_KERNELS)}"
        )
    return key


def _apply_bandwidth_knob(
    chip_name: str, target: str, table: dict[str, float]
) -> dict[str, float]:
    """Rescale a per-kernel table so its best kernel equals the knob value.

    Scaling the whole table preserves the inter-kernel ratios (including the
    M2 Copy/Scale anomaly) while letting one scalar knob fit the Figure-1
    'up to' bandwidth.
    """
    knob = _overrides.knob_value(chip_name, f"stream.gbs.{target}")
    if knob is None:
        return table
    scale = knob / max(table.values())
    return {k: v * scale for k, v in table.items()}


#: ``(chip name,) -> StreamCalibration`` per chip object (see
#: :func:`~repro.soc.catalog.chip_memo`).
_STREAM_CALIBRATIONS: dict[tuple, tuple] = {}


def stream_calibration(chip: ChipSpec) -> StreamCalibration:
    """Per-kernel targets for a chip (generic fractions off-catalog).

    Derived chips (calibration overlays) resolve their base's anchored
    tables, then apply any ``stream.gbs.*`` knobs.  The table is resolved
    once per chip object and shared, so its mappings are read-only.
    """
    return chip_memo(
        _STREAM_CALIBRATIONS,
        (chip.name,),
        chip,
        lambda: _resolve_stream_calibration(chip),
    )


def _resolve_stream_calibration(chip: ChipSpec) -> StreamCalibration:
    base_key = base_chip_name(chip.name)
    if base_key in _CPU_TARGETS_GBS:
        cpu_targets = dict(_CPU_TARGETS_GBS[base_key])
        gpu_targets = dict(_GPU_TARGETS_GBS[base_key])
    else:
        theoretical = chip.memory.bandwidth_gbs
        cpu_targets = {
            k: theoretical * f for k, f in _GENERIC_CPU_FRACTION.items()
        }
        gpu_targets = {
            k: theoretical * f for k, f in _GENERIC_GPU_FRACTION.items()
        }
    return StreamCalibration(
        chip_name=chip.name,
        cpu_targets_gbs=MappingProxyType(
            _apply_bandwidth_knob(chip.name, "cpu", cpu_targets)
        ),
        gpu_targets_gbs=MappingProxyType(
            _apply_bandwidth_knob(chip.name, "gpu", gpu_targets)
        ),
    )


def cpu_stream_bandwidth_gbs(chip: ChipSpec, kernel: str, threads: int) -> float:
    """Effective CPU STREAM bandwidth at a given OpenMP thread count.

    The saturating shape means a single core reaches roughly half the link
    bandwidth and the full complement of physical cores reaches the target,
    matching the paper's observation that the maximum is obtained from the
    OMP_NUM_THREADS sweep (section 3.1).
    """
    if threads < 1:
        raise CalibrationError(f"thread count must be >= 1, got {threads}")
    target = stream_calibration(chip).cpu_target(kernel)
    max_threads = chip.total_cores
    t = min(threads, max_threads)
    shape = t / (t + _THREAD_HALF_CORES)
    norm = max_threads / (max_threads + _THREAD_HALF_CORES)
    return target * shape / norm


def gpu_stream_bandwidth_gbs(chip: ChipSpec, kernel: str, array_bytes: int) -> float:
    """Effective GPU STREAM bandwidth for a given per-array footprint."""
    if array_bytes <= 0:
        raise CalibrationError("array footprint must be positive")
    target = stream_calibration(chip).gpu_target(kernel)
    ramp = array_bytes / (array_bytes + _GPU_RAMP_HALF_BYTES)
    return target * ramp


def stream_power_draws(chip: ChipSpec, target: str) -> dict[PowerComponent, float]:
    """Component draws (W) while a STREAM kernel runs on ``"cpu"`` or ``"gpu"``."""
    base_key = base_chip_name(chip.name)
    if target == "cpu":
        cpu_w = _CPU_STREAM_POWER_W.get(base_key, 3.0)
        return {PowerComponent.CPU: cpu_w, PowerComponent.DRAM: _STREAM_DRAM_W}
    if target == "gpu":
        gpu_w = _GPU_STREAM_POWER_W.get(base_key, 4.0)
        return {
            PowerComponent.CPU: _GPU_STREAM_HOST_CPU_W,
            PowerComponent.GPU: gpu_w,
            PowerComponent.DRAM: _STREAM_DRAM_W,
        }
    raise CalibrationError(f"STREAM target must be 'cpu' or 'gpu', got {target!r}")


def _stream_cost(kernel: str, n_elements: int, element_bytes: int) -> OpCost:
    """The work of one kernel pass over ``n_elements`` (STREAM's accounting)."""
    reads, writes, flops = STREAM_ACCOUNTING[kernel]
    arrays = reads + writes
    moved = float(arrays * n_elements * element_bytes)
    return OpCost(
        flops=float(flops * n_elements),
        bytes_read=moved * reads / arrays,
        bytes_written=moved * writes / arrays,
    )


def cpu_stream_operations(
    machine, threads: int, n_elements: int
) -> tuple[Operation, ...]:
    """The four CPU kernel dispatches at one ``OMP_NUM_THREADS`` setting.

    ``machine`` is a :class:`~repro.sim.machine.Machine` or a
    :class:`~repro.sim.vectorized.VectorContext`.  The CPU draw ramps
    mildly with the active threads on top of a base fraction; the four
    ops share that one draws mapping.  Each (kernel, threads) dispatch has
    its own noise key, so its repetitions draw successive counters.
    """
    chip = machine.chip
    cores = chip.total_cores
    ramp = 0.35 + 0.65 * min(threads, cores) / cores
    draws = {
        comp: watts * ramp if comp is PowerComponent.CPU else watts
        for comp, watts in stream_power_draws(chip, "cpu").items()
    }
    peak_flops = machine.peak_flops(EngineKind.CPU_SIMD)
    peak_bytes = machine.memory_bandwidth_bytes_per_s()
    theoretical = chip.memory.bandwidth_gbs
    return tuple(
        Operation(
            engine=EngineKind.CPU_SIMD,
            label=f"stream/cpu/{kernel}/T={threads}",
            cost=_stream_cost(kernel, n_elements, STREAM_ELEMENT_BYTES["cpu"]),
            peak_flops=peak_flops,
            peak_bytes_per_s=peak_bytes,
            memory_efficiency=min(
                1.0, cpu_stream_bandwidth_gbs(chip, kernel, threads) / theoretical
            ),
            overhead_s=_CPU_STREAM_OVERHEAD_S,
            power_draws_w=draws,
            noise_key=f"stream/cpu/{chip.name}/{kernel}/T={threads}",
            noise_sigma=STREAM_NOISE_SIGMA,
        )
        for kernel in STREAM_KERNELS
    )


def gpu_stream_operations(machine, n_elements: int) -> tuple[Operation, ...]:
    """The four GPU kernel dispatches over ``n_elements``-long FP32 arrays.

    The calibrated link efficiency ramps with the array footprint; the four
    ops share one draws mapping, and each carries its content-addressed
    noise key ``{chip}/stream/gpu/{kernel}/n={n}``.
    """
    chip = machine.chip
    draws = stream_power_draws(chip, "gpu")
    peak_flops = machine.peak_flops(EngineKind.GPU)
    peak_bytes = machine.memory_bandwidth_bytes_per_s()
    theoretical = chip.memory.bandwidth_gbs
    element_bytes = STREAM_ELEMENT_BYTES["gpu"]
    array_bytes = element_bytes * n_elements
    return tuple(
        Operation(
            engine=EngineKind.GPU,
            label=f"stream/gpu/{kernel}/n={n_elements}",
            cost=_stream_cost(kernel, n_elements, element_bytes),
            peak_flops=peak_flops,
            peak_bytes_per_s=peak_bytes,
            memory_efficiency=min(
                1.0, gpu_stream_bandwidth_gbs(chip, kernel, array_bytes) / theoretical
            ),
            overhead_s=_GPU_STREAM_OVERHEAD_S,
            power_draws_w=draws,
            noise_key=f"{chip.name}/stream/gpu/{kernel}/n={n_elements}",
            noise_sigma=STREAM_NOISE_SIGMA,
        )
        for kernel in STREAM_KERNELS
    )
