"""Per-component power envelopes for the simulated SoCs.

``powermetrics`` reports separate CPU and GPU power (section 3.3); our power
model mirrors that: each :class:`PowerComponent` has an idle floor and a
maximum draw, and workloads express a *utilisation* in [0, 1] that linearly
interpolates between them.  Utilisation is distinct from compute efficiency:
the CUTLASS-style shader keeps the GPU ALUs busy (high utilisation, ~20 W on
the M4) while achieving a tenth of MPS's useful FLOPS (Figures 3-4).
"""

from __future__ import annotations

import dataclasses
import enum
from types import MappingProxyType
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = ["PowerComponent", "ComponentPower", "PowerEnvelope"]


class PowerComponent(enum.Enum):
    """The power rails the simulator tracks (superset of the paper's two)."""

    CPU = "cpu"   # includes the AMX units, as powermetrics attributes them
    GPU = "gpu"
    ANE = "ane"
    DRAM = "dram"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass(frozen=True)
class ComponentPower:
    """Idle floor and maximum draw of one component, in watts."""

    idle_w: float
    max_w: float

    def __post_init__(self) -> None:
        if self.idle_w < 0:
            raise ConfigurationError("idle power cannot be negative")
        if self.max_w < self.idle_w:
            raise ConfigurationError("max power cannot be below idle power")

    def at_utilisation(self, utilisation: float) -> float:
        """Draw in watts at a utilisation clamped into [0, 1]."""
        u = min(1.0, max(0.0, utilisation))
        return self.idle_w + u * (self.max_w - self.idle_w)

    def utilisation_for(self, watts: float) -> float:
        """Inverse of :meth:`at_utilisation` (clamped into [0, 1])."""
        if self.max_w == self.idle_w:
            return 0.0
        return min(1.0, max(0.0, (watts - self.idle_w) / (self.max_w - self.idle_w)))


@dataclasses.dataclass(frozen=True)
class PowerEnvelope:
    """The full set of component envelopes for one chip."""

    components: Mapping[PowerComponent, ComponentPower]

    def __post_init__(self) -> None:
        # envelopes are shared between machines: a read-only copy
        object.__setattr__(self, "components", MappingProxyType(dict(self.components)))
        missing = [c for c in (PowerComponent.CPU, PowerComponent.GPU) if c not in self.components]
        if missing:
            raise ConfigurationError(
                f"power envelope must cover CPU and GPU; missing {missing}"
            )

    def component(self, component: PowerComponent) -> ComponentPower:
        """The envelope of one component; raises if unmodelled."""
        try:
            return self.components[component]
        except KeyError:
            raise ConfigurationError(f"no power data for component {component}") from None

    def idle_watts(self, component: PowerComponent) -> float:
        """Idle floor of one component in watts."""
        return self.component(component).idle_w

    def total_idle_watts(self) -> float:
        """Sum of idle floors over every modelled component."""
        return sum(cp.idle_w for cp in self.components.values())

    def max_watts(self, component: PowerComponent) -> float:
        """Maximum draw of one component in watts."""
        return self.component(component).max_w

    def draw(self, utilisations: Mapping[PowerComponent, float]) -> dict[PowerComponent, float]:
        """Watts per component for a utilisation map (absent components idle)."""
        out: dict[PowerComponent, float] = {}
        for comp, envelope in self.components.items():
            out[comp] = envelope.at_utilisation(utilisations.get(comp, 0.0))
        return out


def _envelope(cpu, gpu, ane, dram) -> PowerEnvelope:
    """An envelope from (idle, max) watt pairs of the four rails."""
    return PowerEnvelope(
        {
            PowerComponent.CPU: ComponentPower(*cpu),
            PowerComponent.GPU: ComponentPower(*gpu),
            PowerComponent.ANE: ComponentPower(*ane),
            PowerComponent.DRAM: ComponentPower(*dram),
        }
    )


#: The study chips' envelopes, built once and shared by every machine.
_ENVELOPES: Mapping[str, PowerEnvelope] = MappingProxyType(
    {
        "M1": _envelope((0.04, 13.0), (0.02, 10.0), (0.01, 8.0), (0.05, 1.5)),
        "M2": _envelope((0.04, 16.0), (0.02, 12.0), (0.01, 9.0), (0.05, 1.8)),
        "M3": _envelope((0.04, 15.0), (0.02, 12.0), (0.01, 9.0), (0.05, 1.8)),
        "M4": _envelope((0.05, 18.0), (0.02, 22.0), (0.01, 10.0), (0.06, 2.2)),
    }
)

#: A generic envelope keeps custom/user-defined chips usable.
_GENERIC_ENVELOPE = _envelope((0.05, 15.0), (0.02, 15.0), (0.01, 8.0), (0.05, 2.0))


def default_envelope_for(chip_name: str) -> PowerEnvelope:
    """Built-in power envelopes for the study chips.

    These bound the draws observed in Figure 3 (a few watts to ~20 W, with
    the M4 GPU at the top) and the powermetrics idle floors of consumer Macs.
    Derived chips get their base's envelope object, not the generic one.
    """
    from repro.soc.catalog import base_chip_name

    key = base_chip_name(chip_name.strip().upper())
    return _ENVELOPES.get(key, _GENERIC_ENVELOPE)


__all__.append("default_envelope_for")
