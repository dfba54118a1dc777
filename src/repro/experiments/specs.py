"""Declarative experiment specifications.

A spec is a frozen, serializable description of one experiment cell — chip,
implementation, size, repetition count, seed, and (optionally) a numerics
profile — with no reference to machines or runtime state.  Because every
knob that influences a result lives on the spec (plus the session
fingerprint), a spec hash is a sound cache key and executing a spec is a
pure function: the same spec always yields the same result, sequentially or
in a parallel batch.

``SweepSpec`` is the grid expander: it names generic axes (chips,
implementation keys, sizes, targets) and ``expand()`` delegates their
interpretation to the workload registered under the sweep's ``kind`` (see
:mod:`repro.workloads`) — the GEMM workload honours the paper's section-4
exclusions (CPU loop implementations skip n > 4096), STREAM crosses chips
with targets, and every plugged-in workload brings its own semantics.
``spec_from_dict`` likewise resolves concrete spec classes through the
registry, so new workloads deserialize without edits here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Iterator, Mapping

from repro.calibration import paper
from repro.errors import ConfigurationError

__all__ = [
    "NUMERICS_PROFILES",
    "ExperimentSpec",
    "GemmSpec",
    "PoweredGemmSpec",
    "StreamSpec",
    "SweepSpec",
    "spec_from_dict",
]

#: Valid values of the optional per-spec numerics override (the session's
#: profile applies when the spec leaves it ``None``).
NUMERICS_PROFILES: tuple[str, ...] = ("full", "sampled", "model-only")


def _canonical_json(data: Mapping[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _check_numerics(profile: str | None) -> None:
    if profile is not None and profile not in NUMERICS_PROFILES:
        raise ConfigurationError(
            f"numerics profile must be one of {NUMERICS_PROFILES}, "
            f"got {profile!r}"
        )


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Base of all concrete specs: the cell's chip, seed and numerics.

    ``chip`` is a name, not a :class:`~repro.soc.chip.ChipSpec` — off-catalog
    chips work through a session's ``machine_factory``.  ``numerics`` is an
    optional per-spec override of the session profile.
    """

    chip: str
    seed: int = 0
    numerics: str | None = None

    #: Serialization tag; each concrete subclass sets its own.
    kind = "base"

    def __post_init__(self) -> None:
        if not self.chip:
            raise ConfigurationError("a spec needs a chip name")
        _check_numerics(self.numerics)

    @classmethod
    def _spec_fields(cls) -> tuple[str, ...]:
        """Field names of this spec class, introspected once per class.

        Per-cell serialization is the hot path of million-cell sweeps;
        ``dataclasses.fields`` walks descriptors on every call, so both
        codec directions cache the introspection on the concrete class
        (``cls.__dict__``, not inherited, so subclasses resolve their own).
        """
        names = cls.__dict__.get("_spec_field_names")
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(cls))
            cls._spec_field_names = names
        return names

    @classmethod
    def _tuple_fields(cls) -> frozenset:
        cached = cls.__dict__.get("_spec_tuple_fields")
        if cached is None:
            cached = frozenset(
                f.name
                for f in dataclasses.fields(cls)
                if "tuple" in str(f.type)
            )
            cls._spec_tuple_fields = cached
        return cached

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready), tagged with the spec ``kind``.

        The serialized dict is computed once per frozen spec and shared by
        every layer that re-reads it (session cache keys, manifest cells,
        envelope payloads, the process backend's wire format); callers get
        a fresh shallow copy, so mutating the returned dict cannot corrupt
        the cache.  Field values are immutable scalars/tuples by the spec
        contract, which is what makes the shallow copy sufficient (and what
        lets this skip ``dataclasses.asdict``'s recursive deep copy).
        """
        cached = self.__dict__.get("_dict_cache")
        if cached is None:
            cached = {name: getattr(self, name) for name in self._spec_fields()}
            cached["kind"] = self.kind
            object.__setattr__(self, "_dict_cache", cached)
        return dict(cached)

    def canonical_json(self) -> str:
        """Memoized canonical JSON (sorted keys, compact separators) — the
        exact string :meth:`spec_hash` and the session cache key hash."""
        cached = self.__dict__.get("_json_cache")
        if cached is None:
            cached = _canonical_json(self.to_dict())
            object.__setattr__(self, "_json_cache", cached)
        return cached

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec of this exact class from :meth:`to_dict` output."""
        payload = {k: v for k, v in data.items() if k != "kind"}
        for name in cls._tuple_fields():
            if name in payload and payload[name] is not None:
                payload[name] = tuple(payload[name])
        return cls(**payload)

    def spec_hash(self) -> str:
        """Stable content hash (hex) — the cache/file identity of this spec.

        Memoized: session caching, manifest checkpoints and the sharded
        store all key on it, and a frozen spec's hash cannot change.
        """
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            cached = hashlib.sha256(
                self.canonical_json().encode()
            ).hexdigest()[:16]
            object.__setattr__(self, "_hash_cache", cached)
        return cached


@dataclasses.dataclass(frozen=True)
class GemmSpec(ExperimentSpec):
    """One Figure-2 cell: ``repeats`` timed multiplications of one size.

    ``verify=None`` verifies whenever numerics ran (FULL or SAMPLED policy).
    """

    impl_key: str = ""
    n: int = 0
    repeats: int = paper.GEMM_REPEATS
    verify: bool | None = None

    kind = "gemm"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.impl_key:
            raise ConfigurationError("a GEMM spec needs an implementation key")
        if self.n <= 0:
            raise ConfigurationError("matrix dimension must be positive")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")


@dataclasses.dataclass(frozen=True)
class PoweredGemmSpec(ExperimentSpec):
    """One Figure-3/4 cell: GEMM timing with the piggybacked power protocol."""

    impl_key: str = ""
    n: int = 0
    repeats: int = paper.GEMM_REPEATS

    kind = "powered-gemm"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.impl_key:
            raise ConfigurationError("a GEMM spec needs an implementation key")
        if self.n <= 0:
            raise ConfigurationError("matrix dimension must be positive")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")


@dataclasses.dataclass(frozen=True)
class StreamSpec(ExperimentSpec):
    """One Figure-1 bar: the STREAM study on one target processor.

    ``n_elements``/``repeats`` of ``None`` take the paper defaults for the
    target (section 4: 10 CPU repetitions under the thread sweep, 20 GPU).
    """

    target: str = "cpu"
    n_elements: int | None = None
    repeats: int | None = None

    kind = "stream"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target not in ("cpu", "gpu"):
            raise ConfigurationError(
                f"STREAM target must be 'cpu' or 'gpu', got {self.target!r}"
            )
        if self.n_elements is not None and self.n_elements < 1:
            raise ConfigurationError("n_elements must be positive")
        if self.repeats is not None and self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of experiment cells over one workload kind.

    The axes are generic; the workload registered under ``kind`` interprets
    them (empty axes take that workload's defaults — e.g. the GEMM workload
    fills in all four chips, the Figure-2 legend implementations and
    ``paper.GEMM_SIZES``).  ``expand()`` materialises the concrete specs in
    deterministic (row-major) order.  Unregistered kinds are rejected at
    construction, never silently routed to a default workload.
    """

    kind: str = "gemm"
    chips: tuple[str, ...] = ()
    impl_keys: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()
    targets: tuple[str, ...] = ("cpu", "gpu")
    repeats: int | None = None
    n_elements: int | None = None
    seed: int = 0
    numerics: str | None = None
    skip_unsupported: bool = True

    def __post_init__(self) -> None:
        from repro import workloads

        workloads.get_workload(self.kind)  # unregistered kinds never misroute
        _check_numerics(self.numerics)

    # -- expansion ---------------------------------------------------------
    def __iter__(self) -> Iterator[ExperimentSpec]:
        return self.expand_iter()

    def expand(self) -> tuple[ExperimentSpec, ...]:
        """The grid's concrete cell specs: a tuple of :meth:`expand_iter`."""
        return tuple(self.expand_iter())

    def expand_iter(self) -> Iterator[ExperimentSpec]:
        """The grid's cells as a lazy stream, in row-major order.

        Expansion is delegated to the registered workload's ``sweep_cells``
        (the GEMM workloads apply the section-4 exclusions there).  The
        built-in workloads expand through generators, so a streaming
        consumer (``run_batch`` under the ``sharded`` backend) never
        materializes a million-cell grid.
        """
        from repro import workloads

        return iter(workloads.get_workload(self.kind).sweep_cells(self))

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready), tagged ``kind="sweep"``."""
        data = dataclasses.asdict(self)
        data["sweep_kind"] = data.pop("kind")
        data["kind"] = "sweep"
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a sweep from :meth:`to_dict` output."""
        payload = dict(data)
        payload.pop("kind", None)
        payload["kind"] = payload.pop("sweep_kind")
        for name in ("chips", "impl_keys", "sizes", "targets"):
            if name in payload and payload[name] is not None:
                payload[name] = tuple(payload[name])
        return cls(**payload)


def spec_from_dict(data: Mapping[str, Any]) -> ExperimentSpec | SweepSpec:
    """Rebuild any spec from its ``to_dict`` form, dispatching on ``kind``.

    Concrete spec classes are resolved through the workload registry, so a
    workload registered at runtime deserializes without edits here;
    ``"sweep"`` stays special (grids are kind-agnostic containers).
    """
    from repro import workloads

    try:
        kind = data["kind"]
    except KeyError:
        raise ConfigurationError("spec dictionary lacks a 'kind' tag") from None
    if kind == "sweep":
        return SweepSpec.from_dict(data)
    try:
        cls = workloads.get_workload(kind).spec_cls
    except ConfigurationError:
        known = ", ".join((*workloads.workload_kinds(), "sweep"))
        raise ConfigurationError(
            f"unknown spec kind {kind!r}; known: {known}"
        ) from None
    return cls.from_dict(data)
