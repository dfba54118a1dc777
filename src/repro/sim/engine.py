"""Operation descriptors executed by the :class:`repro.sim.machine.Machine`.

An :class:`Operation` bundles everything the machine needs to advance time
and record power for one unit of simulated work: the engine it runs on, its
roofline cost, the resolved efficiencies, dispatch overhead, and the absolute
component power draws while it runs.  Implementations build operations from
the calibration layer; the machine stays generic.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Mapping

from repro.errors import ConfigurationError
from repro.sim.roofline import OpCost, TimeBreakdown
from repro.soc.power import PowerComponent

__all__ = ["EngineKind", "Operation", "CompletedOperation"]


class EngineKind(enum.Enum):
    """The execution engines of an M-series SoC (section 2)."""

    CPU_SCALAR = "cpu-scalar"
    CPU_SIMD = "cpu-simd"
    AMX = "amx"
    GPU = "gpu"
    ANE = "ane"

    @property
    def power_component(self) -> PowerComponent:
        """The powermetrics rail this engine's draw is attributed to.

        AMX sits inside the CPU complex, so powermetrics reports it as CPU
        power — which is why the paper can compare Accelerate efficiency
        against CPU implementations directly.
        """
        if self in (EngineKind.CPU_SCALAR, EngineKind.CPU_SIMD, EngineKind.AMX):
            return PowerComponent.CPU
        if self is EngineKind.GPU:
            return PowerComponent.GPU
        return PowerComponent.ANE


@dataclasses.dataclass(frozen=True)
class Operation:
    """One schedulable unit of simulated work."""

    engine: EngineKind
    label: str
    cost: OpCost
    peak_flops: float
    peak_bytes_per_s: float
    compute_efficiency: float = 1.0
    memory_efficiency: float = 1.0
    overhead_s: float = 0.0
    power_draws_w: Mapping[PowerComponent, float] = dataclasses.field(
        default_factory=dict
    )
    noise_key: str | None = None
    noise_sigma: float | None = None
    #: Scales an active noise draw (``repro.sim.noise``); 1.0 for most ops.
    noise_gain: float = 1.0

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigurationError("operation label must be non-empty")
        if self.noise_gain <= 0.0:
            raise ConfigurationError("noise gain must be positive")
        for comp, watts in self.power_draws_w.items():
            if watts < 0.0:
                raise ConfigurationError(f"negative power draw for {comp}")


@dataclasses.dataclass(frozen=True)
class CompletedOperation:
    """Outcome of executing an :class:`Operation`."""

    operation: Operation
    breakdown: TimeBreakdown
    start_s: float
    end_s: float
    draws_w: Mapping[PowerComponent, float]
    throttled: bool

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def achieved_flops(self) -> float:
        if self.elapsed_s == 0.0:
            return 0.0
        return self.operation.cost.flops / self.elapsed_s

    @property
    def achieved_bytes_per_s(self) -> float:
        if self.elapsed_s == 0.0:
            return 0.0
        return self.operation.cost.total_bytes / self.elapsed_s

    def energy_j(self) -> float:
        """Energy of the *active* draws over this operation (excludes idle rails)."""
        return sum(w for w in self.draws_w.values()) * self.elapsed_s
