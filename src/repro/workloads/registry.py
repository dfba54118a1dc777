"""The workload registry: ``kind`` string -> :class:`~repro.workloads.base.Workload`.

This module is the single source of truth the experiment stack dispatches
through.  It holds two tables:

* the **workload table**, keyed by ``kind`` and by spec class — consulted by
  spec deserialization, sweep expansion, the executor, the vectorized
  backend (which reads each workload's optional ``lower_group`` lowering
  hook and falls back to scalar execution when it is ``None``) and the CLI;
* the **result-codec table**, keyed by result ``type`` tag and by result
  class — consulted by the envelope layer.  Workload registration populates
  it automatically; :func:`register_result_codec` additionally registers
  standalone codecs for nested record types (e.g. the powermetrics
  measurement inside a powered-GEMM result).

The registry deliberately imports nothing from :mod:`repro.experiments`, so
plugins can import spec base classes and executor helpers without cycles.
Builtin workloads are registered when :mod:`repro.workloads` is imported.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.workloads.base import Workload

__all__ = [
    "register_workload",
    "unregister_workload",
    "register_result_codec",
    "get_workload",
    "workload_for_spec",
    "workload_kinds",
    "all_workloads",
    "serialize_result",
    "deserialize_result",
]

_WORKLOADS: dict[str, Workload] = {}
_BY_SPEC_CLS: dict[type, Workload] = {}
_RESULT_TO_DICT: dict[type, Callable[[Any], dict[str, Any]]] = {}
_RESULT_FROM_DICT: dict[str, Callable[[Mapping[str, Any]], Any]] = {}


def register_result_codec(
    tag: str,
    result_cls: type,
    to_dict: Callable[[Any], dict[str, Any]],
    from_dict: Callable[[Mapping[str, Any]], Any],
) -> None:
    """Register a standalone result codec under a ``type`` tag.

    Workload registration calls this for the workload's own result type;
    use it directly only for auxiliary record types that appear inside
    envelopes on their own (e.g. ``PowerMeasurement``).
    """
    if tag in _RESULT_FROM_DICT:
        raise ConfigurationError(f"result type tag {tag!r} is already registered")
    if result_cls in _RESULT_TO_DICT:
        raise ConfigurationError(
            f"result class {result_cls.__name__} is already registered"
        )
    _RESULT_TO_DICT[result_cls] = to_dict
    _RESULT_FROM_DICT[tag] = from_dict


def _drop_result_codec(tag: str, result_cls: type) -> None:
    _RESULT_FROM_DICT.pop(tag, None)
    _RESULT_TO_DICT.pop(result_cls, None)


def register_workload(workload: Workload) -> Workload:
    """Register a workload plugin; returns it so modules can re-export.

    Raises :class:`ConfigurationError` if the kind, spec class or result
    type is already taken — plugins must not silently shadow each other.
    """
    if workload.kind in _WORKLOADS:
        raise ConfigurationError(
            f"workload kind {workload.kind!r} is already registered"
        )
    if workload.spec_cls in _BY_SPEC_CLS:
        raise ConfigurationError(
            f"spec class {workload.spec_cls.__name__} is already registered"
        )
    register_result_codec(
        workload.result_tag,
        workload.result_cls,
        workload.result_to_dict,
        workload.result_from_dict,
    )
    _WORKLOADS[workload.kind] = workload
    _BY_SPEC_CLS[workload.spec_cls] = workload
    return workload


def unregister_workload(kind: str) -> None:
    """Remove a registered workload (primarily for tests and plugin teardown)."""
    workload = _WORKLOADS.pop(kind, None)
    if workload is None:
        return
    _BY_SPEC_CLS.pop(workload.spec_cls, None)
    _drop_result_codec(workload.result_tag, workload.result_cls)


def get_workload(kind: str) -> Workload:
    """The workload registered under ``kind``.

    Raises :class:`ConfigurationError` for unregistered kinds, naming the
    known ones — nothing ever silently falls through to a default workload.
    """
    try:
        return _WORKLOADS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; known: {', '.join(_WORKLOADS)}"
        ) from None


def workload_for_spec(spec: Any) -> Workload:
    """The workload owning ``spec``'s class (exact class match)."""
    try:
        return _BY_SPEC_CLS[type(spec)]
    except KeyError:
        raise ConfigurationError(
            f"cannot execute spec of type {type(spec).__name__}; "
            f"no workload registers it"
        ) from None


def workload_kinds() -> tuple[str, ...]:
    """Registered kind strings, in registration order (builtins first)."""
    return tuple(_WORKLOADS)


def all_workloads() -> tuple[Workload, ...]:
    """Every registered workload, in registration order."""
    return tuple(_WORKLOADS.values())


def serialize_result(result: Any) -> dict[str, Any]:
    """Serialize any registered result record to plain data, tagged ``type``."""
    try:
        to_dict = _RESULT_TO_DICT[type(result)]
    except KeyError:
        raise ConfigurationError(
            f"cannot serialize result of type {type(result).__name__}"
        ) from None
    return to_dict(result)


def deserialize_result(data: Mapping[str, Any]) -> Any:
    """Rebuild a result record from :func:`serialize_result` output."""
    try:
        tag = data["type"]
    except KeyError:
        raise ConfigurationError("result dictionary lacks a 'type' tag") from None
    try:
        from_dict = _RESULT_FROM_DICT[tag]
    except KeyError:
        raise ConfigurationError(
            f"unknown result type {tag!r}; known: {', '.join(_RESULT_FROM_DICT)}"
        ) from None
    return from_dict(data)
