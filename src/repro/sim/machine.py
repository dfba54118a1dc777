"""The simulated machine: one device from Table 3 under test.

A :class:`Machine` owns the virtual clock, the power recorder, the execution
trace, the thermal model and a deterministic noise source.  Executing an
:class:`~repro.sim.engine.Operation` advances the clock by the roofline time
(possibly stretched by thermal throttling and jitter) and records the
component power draws over the active window — everything ``powermetrics``
later integrates.  A machine counts noise draws per key, so the k-th
noisy execution of a key draws counter k (:mod:`repro.sim.noise`); an op
without a key is keyed by its chip and label.
"""

from __future__ import annotations

import functools
from typing import Mapping

from repro.errors import ConfigurationError
from repro.sim.clock import VirtualClock
from repro.sim.engine import CompletedOperation, EngineKind, Operation
from repro.sim.noise import DeterministicNoise, resolve_sigma
from repro.sim.policy import NumericsConfig
from repro.sim.recorder import PowerInterval, PowerRecorder
from repro.sim.roofline import roofline_time
from repro.sim.trace import ExecutionTrace, TraceEvent
from repro.soc.catalog import get_chip
from repro.soc.chip import ChipSpec
from repro.soc.device import DeviceSpec, device_for_chip
from repro.soc.power import PowerComponent, PowerEnvelope, default_envelope_for
from repro.soc.thermal import ThermalModel

__all__ = ["Machine", "MachineTemplate", "engine_peak_flops", "machine_template"]


def engine_peak_flops(chip: ChipSpec, engine: EngineKind) -> float:
    """Architectural FP peak of one execution engine (FLOP/s).

    Shared dispatch used by :meth:`Machine.peak_flops` and the vectorized
    sweep engine's :class:`~repro.sim.vectorized.VectorContext`, so both
    paths read the very same numbers.
    """
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
    raise ConfigurationError(f"unknown engine {engine}")


class MachineTemplate:
    """The immutable half of a study machine, shared across constructions.

    Chip spec, device spec, thermal model and power envelope are all frozen
    value objects that depend only on ``(chip name, thermal_enabled)`` — yet
    the fresh-machine-per-cell construction used to rebuild them for every
    experiment cell.  :func:`machine_template` caches one template per
    configuration; :meth:`Machine.for_chip` and the vectorized sweep engine
    both draw from it, leaving only the genuinely per-machine state (clock,
    recorder, trace, noise source) to construct per cell.
    """

    __slots__ = ("chip", "device", "thermal", "envelope")

    def __init__(
        self,
        chip: ChipSpec,
        device: DeviceSpec,
        thermal: ThermalModel,
        envelope: PowerEnvelope,
    ) -> None:
        self.chip = chip
        self.device = device
        self.thermal = thermal
        self.envelope = envelope

    def peak_flops(self, engine: EngineKind) -> float:
        """Architectural FP peak of one execution engine (FLOP/s)."""
        return engine_peak_flops(self.chip, engine)

    def memory_bandwidth_bytes_per_s(self) -> float:
        """Theoretical unified-memory bandwidth in bytes/second."""
        return self.chip.memory.bandwidth_bytes_per_s()


@functools.lru_cache(maxsize=None)
def machine_template(name: str, thermal_enabled: bool = True) -> MachineTemplate:
    """The cached immutable template of one study configuration."""
    chip = get_chip(name)
    device = device_for_chip(name)
    return MachineTemplate(
        chip,
        device,
        ThermalModel.for_device(device, enabled=thermal_enabled),
        default_envelope_for(chip.name),
    )


class Machine:
    """A simulated device (chip + enclosure) with its measurement plumbing."""

    def __init__(
        self,
        chip: ChipSpec,
        device: DeviceSpec,
        *,
        envelope: PowerEnvelope | None = None,
        thermal: ThermalModel | None = None,
        seed: int = 0,
        noise_sigma: float = 0.015,
        numerics: NumericsConfig | None = None,
    ) -> None:
        if device.chip_name != chip.name:
            raise ConfigurationError(
                f"device {device.model!r} carries chip {device.chip_name}, "
                f"not {chip.name}"
            )
        self.chip = chip
        self.device = device
        self.envelope = envelope or default_envelope_for(chip.name)
        self.thermal = thermal or ThermalModel.for_device(device)
        self.clock = VirtualClock()
        self.recorder = PowerRecorder(self.envelope)
        self.trace = ExecutionTrace()
        self.noise = DeterministicNoise(seed, noise_sigma)
        self.numerics = numerics or NumericsConfig.sampled()
        #: Draws so far per noise key, i.e. each key's next counter.
        self._noise_counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_chip(
        cls,
        name: str,
        *,
        seed: int = 0,
        noise_sigma: float = 0.015,
        thermal_enabled: bool = True,
        numerics: NumericsConfig | None = None,
    ) -> "Machine":
        """Create the study configuration for a chip (device from Table 3).

        The immutable pieces — chip, device, thermal model, power envelope —
        come from the shared :func:`machine_template` cache; only per-machine
        state (clock, recorder, trace, noise) is constructed fresh.
        """
        template = machine_template(name, thermal_enabled)
        return cls(
            template.chip,
            template.device,
            envelope=template.envelope,
            thermal=template.thermal,
            seed=seed,
            noise_sigma=noise_sigma,
            numerics=numerics,
        )

    # ------------------------------------------------------------------
    # Clock facade
    # ------------------------------------------------------------------
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now_s()

    def now_ns(self) -> int:
        """Current virtual time in integral nanoseconds (chrono-style)."""
        return self.clock.now_ns()

    def sleep(self, dt_s: float) -> None:
        """Idle the machine for ``dt_s`` virtual seconds (power at idle floors)."""
        self.clock.sleep(dt_s)

    # ------------------------------------------------------------------
    # Architectural peaks used by implementations
    # ------------------------------------------------------------------
    def peak_flops(self, engine: EngineKind) -> float:
        """Architectural FP peak of one execution engine (FLOP/s)."""
        return engine_peak_flops(self.chip, engine)

    def memory_bandwidth_bytes_per_s(self) -> float:
        """Theoretical unified-memory bandwidth in bytes/second."""
        return self.chip.memory.bandwidth_bytes_per_s()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, op: Operation) -> CompletedOperation:
        """Run one operation: advance time, apply thermals/noise, log power."""
        breakdown = roofline_time(
            op.cost,
            peak_flops=op.peak_flops,
            peak_bytes_per_s=op.peak_bytes_per_s,
            compute_efficiency=op.compute_efficiency,
            memory_efficiency=op.memory_efficiency,
            overhead_s=op.overhead_s,
        )
        duration = breakdown.total_s

        requested_total = sum(op.power_draws_w.values())
        clamp = self.thermal.clamp_factor(requested_total)
        throttled = clamp < 1.0
        draws: Mapping[PowerComponent, float]
        if throttled:
            duration *= self.thermal.throttle_time_factor(requested_total)
            draws = {c: w * clamp for c, w in op.power_draws_w.items()}
        else:
            draws = dict(op.power_draws_w)

        if resolve_sigma(self.noise.default_sigma, op.noise_sigma):
            noise_key = op.noise_key or f"{self.chip.name}/{op.label}"
            counter = self._noise_counters.get(noise_key, 0)
            self._noise_counters[noise_key] = counter + 1
            duration *= self.noise.factor(
                noise_key, op.noise_sigma, counter=counter, gain=op.noise_gain
            )

        start = self.clock.now_s()
        end = self.clock.advance(duration)
        if draws:
            self.recorder.record(PowerInterval(start, end, draws))
        self.trace.append(
            TraceEvent(
                start_s=start,
                end_s=end,
                engine=op.engine.value,
                label=op.label,
                flops=op.cost.flops,
                bytes_moved=op.cost.total_bytes,
            )
        )
        return CompletedOperation(
            operation=op,
            breakdown=breakdown,
            start_s=start,
            end_s=end,
            draws_w=draws,
            throttled=throttled,
        )

    def reset_measurements(self) -> None:
        """Clear the trace and power history (the clock keeps advancing)."""
        self.trace.clear()
        self.recorder.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Machine(chip={self.chip.name}, device={self.device.model!r}, "
            f"t={self.clock.now_s():.6f}s)"
        )
