"""Calibration overlays: named parameter variants of the catalog chips.

The calibration loop (:mod:`repro.calibrate`) searches over a handful of
scalar *knobs* — anchored peak-GFLOPS targets, saturated power draws,
dispatch overheads, traffic factors, STREAM bandwidths.  Each candidate
parameter set becomes a **derived chip**: a renamed clone of a catalog chip
registered via :func:`repro.soc.catalog.register_derived_chip`, whose name
embeds a content hash of the overlay.  Everything keyed on ``chip.name``
(lowering caches, session fingerprints, machine templates) therefore stays
sound: two different parameter sets can never collide on a name, and the
same parameter set always resolves to the same name.

The gemm/stream calibration modules consult :func:`knob_value` at their
anchored-table lookups, so a derived chip behaves exactly like its base
except where a knob overrides a constant.

Knob grammar::

    gemm.peak_gflops.<impl>          Figure-2 peak GFLOPS target
    gemm.power_w.<impl>              combined CPU+GPU saturated watts
    gemm.overhead_s.<impl>           fixed dispatch overhead (seconds)
    gemm.traffic_read_factor.<impl>  DRAM traffic multiplier on input bytes
    stream.gbs.cpu | stream.gbs.gpu  best-kernel STREAM bandwidth (GB/s)
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from types import MappingProxyType
from typing import Mapping

from repro.errors import CalibrationError
from repro.soc.catalog import (
    CHIP_NAMES,
    base_chip_name,
    derived_chip_base,
    get_chip,
    register_derived_chip,
)

__all__ = [
    "CalibrationOverlay",
    "derive_calibrated_chip",
    "overlay_for",
    "knob_value",
    "validate_knob",
    "anchored_knob_value",
    "KNOB_CATEGORIES",
]

#: Knob categories and whether they take an implementation qualifier.
KNOB_CATEGORIES: Mapping[str, bool] = MappingProxyType(
    {
        "gemm.peak_gflops": True,
        "gemm.power_w": True,
        "gemm.overhead_s": True,
        "gemm.traffic_read_factor": True,
        "stream.gbs": False,  # qualifier is the target: "cpu" | "gpu"
    }
)

#: Categories whose anchored peak-GFLOPS table does not cover every impl.
#: ``gemm.peak_gflops`` only makes sense for implementations with a
#: Figure-2 anchor (the ANE and emulated-FP64 paths derive theirs).
_PEAK_GFLOPS_IMPLS: tuple[str, ...] = (
    "cpu-single",
    "cpu-omp",
    "cpu-accelerate",
    "gpu-naive",
    "gpu-cutlass",
    "gpu-mps",
)


@dataclasses.dataclass(frozen=True)
class CalibrationOverlay:
    """One derived chip's parameter overrides: knob name -> value."""

    base: str
    values: Mapping[str, float]

    def canonical_json(self) -> str:
        """Canonical JSON of (base, values) — the overlay's identity."""
        payload = {"base": self.base, "values": dict(sorted(self.values.items()))}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content hash embedded in the derived chip's name."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:10].upper()


#: Derived chip name (upper-case) -> its overlay.
_OVERLAYS: dict[str, CalibrationOverlay] = {}

#: ``(base, ((knob, type(value), value), ...)) -> name`` of every chip
#: :func:`derive_calibrated_chip` has registered.
_DERIVED_NAMES: dict[tuple, str] = {}


def _split_knob(knob: str) -> tuple[str, str]:
    """(category, qualifier); raises :class:`CalibrationError` if malformed."""
    for category, takes_impl in KNOB_CATEGORIES.items():
        prefix = category + "."
        if knob.startswith(prefix):
            qualifier = knob[len(prefix):]
            if qualifier:
                return category, qualifier
    raise CalibrationError(
        f"malformed calibration knob {knob!r}; knob categories: "
        f"{', '.join(KNOB_CATEGORIES)}"
    )


@functools.lru_cache(maxsize=None)
def validate_knob(knob: str) -> None:
    """Check a knob name against the grammar; raise :class:`CalibrationError`.

    Memoized per name: a calibration search re-derives chips with the same
    few knobs thousands of times.  Exceptions are never cached, so a
    malformed knob raises on every call.
    """
    category, qualifier = _split_knob(knob)
    if category == "stream.gbs":
        if qualifier not in ("cpu", "gpu"):
            raise CalibrationError(
                f"stream.gbs target must be 'cpu' or 'gpu', got {qualifier!r}"
            )
        return
    from repro.calibration.gemm import KNOWN_IMPL_KEYS

    if qualifier not in KNOWN_IMPL_KEYS:
        raise CalibrationError(
            f"{knob!r}: unknown implementation key {qualifier!r}; "
            f"known: {', '.join(KNOWN_IMPL_KEYS)}"
        )
    if category == "gemm.peak_gflops" and qualifier not in _PEAK_GFLOPS_IMPLS:
        raise CalibrationError(
            f"{knob!r}: {qualifier!r} has no Figure-2 peak anchor; "
            f"tunable implementations: {', '.join(_PEAK_GFLOPS_IMPLS)}"
        )


def anchored_knob_value(chip_name: str, knob: str) -> float:
    """The paper-anchored default a knob would override, for a catalog chip.

    This is what the search brackets its bounds around, and what
    self-calibration must recover.

    Raises
    ------
    CalibrationError
        For malformed knobs or non-catalog chips.
    """
    validate_knob(knob)
    key = base_chip_name(chip_name.strip().upper())
    if key not in CHIP_NAMES:
        raise CalibrationError(
            f"anchored knob values exist only for catalog chips "
            f"({', '.join(CHIP_NAMES)}), not {chip_name!r}"
        )
    category, qualifier = _split_knob(knob)
    if category == "stream.gbs":
        from repro.calibration.stream import stream_calibration

        cal = stream_calibration(get_chip(key))
        return cal.cpu_max_gbs() if qualifier == "cpu" else cal.gpu_max_gbs()
    from repro.calibration import gemm as _gemm

    if category == "gemm.peak_gflops":
        return _gemm.anchored_peak_gflops(key, qualifier)
    if category == "gemm.power_w":
        return _gemm.anchored_power_w(key, qualifier)
    if category == "gemm.overhead_s":
        return _gemm.anchored_overhead_s(qualifier)
    return _gemm.anchored_traffic_read_factor(qualifier)


def derive_calibrated_chip(base: str, values: Mapping[str, float]) -> str:
    """Register a derived chip carrying a knob overlay; return its name.

    The name is content-addressed (``M1+CAL<digest>``), so deriving the same
    (base, values) twice returns the same name, and distinct overlays can
    never alias.

    A search re-derives the same candidates many times, so each derived
    name is memoized on exactly what it hashes: the base, and every knob
    with its value's type and value (``1``, ``1.0`` and ``True`` serialize
    differently, so they name different chips).  A hit still checks that
    the name is registered; errors are never memoized.

    Raises
    ------
    CalibrationError
        For unknown knobs, non-positive values, or a non-catalog base.
    """
    memo_key = (
        base,
        tuple((knob, type(value), value) for knob, value in values.items()),
    )
    name = _DERIVED_NAMES.get(memo_key)
    if name is not None and derived_chip_base(name) is not None:
        return name
    base_key = base.strip().upper()
    if base_key not in CHIP_NAMES:
        raise CalibrationError(
            f"calibration overlays derive from catalog chips "
            f"({', '.join(CHIP_NAMES)}), not {base!r}"
        )
    if not values:
        raise CalibrationError("a calibration overlay needs at least one knob")
    for knob, value in values.items():
        validate_knob(knob)
        if not (value > 0.0):
            raise CalibrationError(
                f"knob {knob!r} must be positive, got {value!r}"
            )
    overlay = CalibrationOverlay(
        base=base_key, values=MappingProxyType(dict(values))
    )
    name = f"{base_key}+CAL{overlay.digest()}"
    spec = dataclasses.replace(get_chip(base_key), name=name)
    register_derived_chip(spec, base_key)
    _OVERLAYS[name] = overlay
    _DERIVED_NAMES[memo_key] = name
    return name


def overlay_for(chip_name: str) -> CalibrationOverlay | None:
    """The overlay attached to a derived chip, or ``None``."""
    return _OVERLAYS.get(chip_name.strip().upper())


def knob_value(chip_name: str, knob: str) -> float | None:
    """A chip's override for one knob, or ``None`` if not overridden."""
    overlay = _OVERLAYS.get(chip_name.strip().upper())
    if overlay is None:
        return None
    return overlay.values.get(knob)
