"""The M-series chip catalog: Table 1 of the paper as data.

Each entry transcribes the paper's Table 1 ("Comparison of Baseline Apple
Silicon M Series Architecture").  AMX peaks are calibrated (Apple publishes
none) so that the Accelerate GEMM results of Figure 2 fall out of the
roofline model; everything else is the table verbatim.  All four chips use
the *maximum* base-model core counts, as in the paper's experimental setup
(section 4).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError, UnknownChipError
from repro.soc.chip import (
    AMXSpec,
    ChipSpec,
    CoreKind,
    CPUClusterSpec,
    GPUSpec,
    MemorySpec,
    NeuralEngineSpec,
)
from repro.soc.precision import Precision

__all__ = [
    "M1",
    "M2",
    "M3",
    "M4",
    "CHIP_NAMES",
    "chip_catalog",
    "get_chip",
    "register_derived_chip",
    "derived_chip_base",
    "base_chip_name",
    "chip_memo",
]

_AMX_V1 = frozenset({Precision.FP16, Precision.FP32, Precision.FP64})
_AMX_V2 = frozenset({Precision.FP16, Precision.FP32, Precision.FP64, Precision.BF16})

M1 = ChipSpec(
    name="M1",
    process_nm="5",
    isa="ARMv8.5-A",
    cpu_clusters=(
        CPUClusterSpec("Firestorm", CoreKind.PERFORMANCE, 4, 3.2, 128, 12),
        CPUClusterSpec("Icestorm", CoreKind.EFFICIENCY, 4, 2.06, 64, 4),
    ),
    amx=AMXSpec(precisions=_AMX_V1, peak_fp32_tflops=1.00),
    gpu=GPUSpec(
        cores_min=7,
        cores_max=8,
        clock_ghz=1.278,
        table_fp32_tflops=(2.29, 2.61),
    ),
    neural_engine=NeuralEngineSpec(cores=16, peak_fp16_tops=11.0),
    memory=MemorySpec(
        technology="LPDDR4X", max_gb_options=(8, 16), bandwidth_gbs=67.0
    ),
)

M2 = ChipSpec(
    name="M2",
    process_nm="5/4",
    isa="ARMv8.6-A",
    cpu_clusters=(
        CPUClusterSpec("Avalanche", CoreKind.PERFORMANCE, 4, 3.5, 128, 16),
        CPUClusterSpec("Blizzard", CoreKind.EFFICIENCY, 4, 2.42, 64, 4),
    ),
    amx=AMXSpec(precisions=_AMX_V2, peak_fp32_tflops=1.25),
    gpu=GPUSpec(
        cores_min=8,
        cores_max=10,
        clock_ghz=1.398,
        table_fp32_tflops=(2.86, 3.57),
    ),
    neural_engine=NeuralEngineSpec(cores=16, peak_fp16_tops=15.8),
    memory=MemorySpec(
        technology="LPDDR5", max_gb_options=(8, 16, 24), bandwidth_gbs=100.0
    ),
)

M3 = ChipSpec(
    name="M3",
    process_nm="3",
    isa="ARMv8.6-A",
    cpu_clusters=(
        CPUClusterSpec("Everest", CoreKind.PERFORMANCE, 4, 4.05, 128, 16),
        CPUClusterSpec("Sawtooth", CoreKind.EFFICIENCY, 4, 2.75, 64, 4),
    ),
    amx=AMXSpec(precisions=_AMX_V2, peak_fp32_tflops=1.55),
    gpu=GPUSpec(
        cores_min=8,
        cores_max=10,
        clock_ghz=1.38,
        table_fp32_tflops=(2.82, 3.53),
    ),
    neural_engine=NeuralEngineSpec(cores=16, peak_fp16_tops=18.0),
    memory=MemorySpec(
        technology="LPDDR5", max_gb_options=(8, 16, 24), bandwidth_gbs=100.0
    ),
)

M4 = ChipSpec(
    name="M4",
    process_nm="3",
    isa="ARMv9.2-A",
    cpu_clusters=(
        CPUClusterSpec("M4-P", CoreKind.PERFORMANCE, 4, 4.4, 128, 16),
        CPUClusterSpec("M4-E", CoreKind.EFFICIENCY, 6, 2.85, 64, 4),
    ),
    amx=AMXSpec(precisions=_AMX_V2, peak_fp32_tflops=1.70, is_sme=True),
    gpu=GPUSpec(
        cores_min=8,
        cores_max=10,
        clock_ghz=1.47,
        table_fp32_tflops=(4.26, 4.26),
    ),
    neural_engine=NeuralEngineSpec(cores=16, peak_fp16_tops=38.0),
    memory=MemorySpec(
        technology="LPDDR5X", max_gb_options=(16, 24, 32), bandwidth_gbs=120.0
    ),
)

_CATALOG: dict[str, ChipSpec] = {c.name: c for c in (M1, M2, M3, M4)}

#: Chip names in generational order, as used throughout the paper's figures.
CHIP_NAMES: tuple[str, ...] = tuple(_CATALOG)


def chip_catalog() -> Mapping[str, ChipSpec]:
    """Read-only view of the full chip catalog."""
    return MappingProxyType(_CATALOG)


#: Derived chips: renamed variants of a catalog entry, registered at runtime
#: (the calibration loop's candidate parameter sets resolve through these).
#: name -> (spec, base catalog name).  Derived chips never appear in
#: :func:`chip_catalog`; they only resolve through :func:`get_chip`, and the
#: device/envelope/calibration layers map them back to their base via
#: :func:`base_chip_name`.
_DERIVED: dict[str, tuple[ChipSpec, str]] = {}


def register_derived_chip(spec: ChipSpec, base: str) -> None:
    """Register a renamed variant of catalog chip ``base``.

    Registration is idempotent for an identical spec; re-registering a name
    with a *different* spec raises (names are content-addressed by their
    creators precisely so this cannot happen by accident).

    Raises
    ------
    ConfigurationError
        If ``base`` is not a catalog chip, the name shadows a catalog
        entry, or the name is already bound to a different spec.
    """
    base_key = base.strip().upper()
    if base_key not in _CATALOG:
        raise ConfigurationError(
            f"derived chips must name a catalog base; {base!r} is not one of "
            f"{', '.join(CHIP_NAMES)}"
        )
    key = spec.name.strip().upper()
    if key in _CATALOG:
        raise ConfigurationError(
            f"derived chip {spec.name!r} would shadow the catalog entry"
        )
    existing = _DERIVED.get(key)
    if existing is not None:
        if existing[0] != spec or existing[1] != base_key:
            raise ConfigurationError(
                f"derived chip {spec.name!r} is already registered with a "
                f"different spec"
            )
        return
    _DERIVED[key] = (spec, base_key)


def derived_chip_base(name: str) -> str | None:
    """The catalog base of a derived chip, or ``None`` for anything else."""
    entry = _DERIVED.get(name.strip().upper())
    return entry[1] if entry is not None else None


def base_chip_name(name: str) -> str:
    """Map a derived chip's name to its catalog base; identity otherwise.

    The calibration tables key on catalog names ("M1".."M4"); everything
    that looks a chip up by name for *table* purposes resolves through here
    so derived variants inherit their base's anchors.
    """
    base = derived_chip_base(name)
    return base if base is not None else name


def chip_memo(cache: dict, key: tuple, chip: Any, build: Callable[[], Any]) -> Any:
    """``cache[key]``, built by ``build()`` once per chip *object*.

    The calibration tables and the lowering caches key on the chip name,
    which is sound for catalog and derived chips: a derived chip's name is a
    content hash of its overlay.  But a custom machine may carry a modified
    :class:`ChipSpec` under a catalog name, so each entry pins the chip it
    was built from, and another chip object under that name rebuilds
    instead of reading the first one's entry.  A ``build`` that raises
    stores nothing.
    """
    entry = cache.get(key)
    if entry is None or entry[0] is not chip:
        entry = cache[key] = (chip, build())
    return entry[1]


def get_chip(name: str) -> ChipSpec:
    """Look up a chip by name (case-insensitive).

    Resolves catalog entries first, then runtime-registered derived chips
    (:func:`register_derived_chip`).

    Raises
    ------
    UnknownChipError
        If the name is neither catalogued nor derived.
    """
    key = name.strip().upper()
    try:
        return _CATALOG[key]
    except KeyError:
        derived = _DERIVED.get(key)
        if derived is not None:
            return derived[0]
        raise UnknownChipError(name, CHIP_NAMES) from None
