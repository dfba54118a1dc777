"""The serializable result envelope.

A :class:`ResultEnvelope` wraps one spec together with its result record and
provenance metadata in a uniform, JSON-round-trippable shell: ``repro run
--json --out results/`` persists envelopes, ``repro figure2 --from results/``
re-renders figures from them without recomputation.  Serialization covers the
*raw* fields only (repetitions, per-kernel bandwidths, measurement windows);
every derived statistic (``best_gflops``, ``max_gbs``,
``efficiency_gflops_per_w``) is recomputed from them, so a round trip
reproduces the statistics to full precision — JSON preserves finite doubles
exactly.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.experiments.specs import ExperimentSpec, spec_from_dict

__all__ = [
    "ENVELOPE_SCHEMA_VERSION",
    "ResultEnvelope",
    "result_to_dict",
    "result_from_dict",
]

#: Bumped whenever the on-disk envelope layout changes shape.
ENVELOPE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Result record <-> plain data (workload-registry codecs)
# ---------------------------------------------------------------------------
def result_to_dict(result: Any) -> dict[str, Any]:
    """Serialize any registered result record to plain data, tagged ``type``.

    Codecs live with their workload plugins (:mod:`repro.workloads`); this
    is a thin facade over the registry's codec table.
    """
    from repro import workloads

    return workloads.serialize_result(result)


def result_from_dict(data: Mapping[str, Any]) -> Any:
    """Rebuild a result record from :func:`result_to_dict` output."""
    from repro import workloads

    return workloads.deserialize_result(data)


def _check_schema(data: Mapping[str, Any]) -> None:
    schema = data.get("schema", ENVELOPE_SCHEMA_VERSION)
    if schema != ENVELOPE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported envelope schema {schema} "
            f"(this version reads {ENVELOPE_SCHEMA_VERSION})"
        )


# ---------------------------------------------------------------------------
# The envelope
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ResultEnvelope:
    """One spec, its result, and provenance — the unit of persistence.

    ``meta`` carries the spec hash, the library version and the session
    fingerprint under which the cell executed; figure assembly reads only
    ``spec``/``result``, so envelopes from different sessions can be mixed.
    """

    spec: ExperimentSpec
    result: Any
    meta: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    @classmethod
    def create(
        cls,
        spec: ExperimentSpec,
        result: Any,
        *,
        meta: Mapping[str, Any] | None = None,
    ) -> "ResultEnvelope":
        """Wrap a result, stamping the standard provenance fields."""
        stamped = {
            "spec_hash": spec.spec_hash(),
            "repro_version": __version__,
        }
        if meta:
            stamped.update(meta)
        return cls(spec=spec, result=result, meta=stamped)

    @property
    def kind(self) -> str:
        """The spec's registered workload kind (``gemm``, ``stream``, ...)."""
        return self.spec.kind

    @property
    def spec_hash(self) -> str:
        """The spec's content hash (also stamped into ``meta``)."""
        return self.meta.get("spec_hash") or self.spec.spec_hash()

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: schema version, spec, result, meta."""
        return {
            "schema": ENVELOPE_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "result": result_to_dict(self.result),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultEnvelope":
        """Rebuild an envelope from :meth:`to_dict` output."""
        _check_schema(data)
        return cls(
            spec=spec_from_dict(data["spec"]),
            result=result_from_dict(data["result"]),
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def from_deferred(cls, loader: "Any") -> "ResultEnvelope":
        """Wrap a :meth:`to_dict` payload that has not been decoded yet.

        ``loader`` is a zero-argument callable returning the payload; it
        runs (once, with the schema check) on the first access to any
        envelope field.  The sharded backend ships whole shards as single
        pickled blobs and hands each cell a loader into the shared decode —
        so a timing loop that only counts envelopes never deserializes them
        at all.  The registry codec work (``spec_from_dict``/
        ``result_from_dict``) is deferred further, until ``spec`` or
        ``result`` is first read: ``to_dict``/``to_json``/``spec_hash``
        serve straight from the payload, so a sharded batch can persist a
        million envelopes without parsing fields nobody reads.
        """
        return _LazyEnvelope(loader)

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON text with deterministic key order."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __eq__(self, other: Any) -> bool:
        # Field-value equality across eager and lazy envelopes — the
        # dataclass-generated comparison would reject the subclass.
        if isinstance(other, ResultEnvelope):
            return (
                self.spec == other.spec
                and self.result == other.result
                and dict(self.meta) == dict(other.meta)
            )
        return NotImplemented

    @classmethod
    def from_json(cls, text: str) -> "ResultEnvelope":
        """Rebuild an envelope from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: "Any") -> "ResultEnvelope":
        """Read one envelope file, naming the path in every failure mode.

        Truncated or hand-edited files surface as a
        :class:`ConfigurationError` that points at the offending file
        instead of a bare ``JSONDecodeError`` halfway through a directory
        scan — the store and run manifests load through here.
        """
        import pathlib

        path = pathlib.Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"envelope file {path} cannot be read: {exc}"
            ) from exc
        try:
            return cls.from_json(text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"envelope file {path}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"envelope file {path} is corrupt or not an envelope: {exc}"
            ) from exc


class _LazyEnvelope(ResultEnvelope):
    """An envelope backed by its plain-data payload, rehydrated on demand.

    Built only by :meth:`ResultEnvelope.from_deferred`.  The loader runs
    (with the schema check) on the first touch of any field.  ``spec`` and
    ``result`` are data descriptors that run the registry codecs on first
    read and memoize the hydrated objects; ``meta``, ``kind``,
    ``spec_hash`` and the serializers read the payload directly, so an
    envelope that is only persisted or keyed never pays for codec work at
    all.
    """

    def __init__(self, loader: Any) -> None:
        object.__setattr__(self, "_payload_data", None)
        object.__setattr__(self, "_loader", loader)

    @property
    def _payload(self) -> Mapping[str, Any]:
        data = self._payload_data
        if data is None:
            data = self._loader()
            _check_schema(data)
            object.__setattr__(self, "_payload_data", data)
            object.__setattr__(self, "_loader", None)
        return data

    @property
    def meta(self) -> Mapping[str, Any]:
        cached = self.__dict__.get("_meta_cache")
        if cached is None:
            cached = self._payload.get("meta", {})
            self.__dict__["_meta_cache"] = cached
        return cached

    @property
    def spec(self) -> ExperimentSpec:
        cached = self.__dict__.get("_spec_cache")
        if cached is None:
            cached = spec_from_dict(self._payload["spec"])
            object.__setattr__(self, "_spec_cache", cached)
        return cached

    @property
    def result(self) -> Any:
        cached = self.__dict__.get("_result_cache")
        if cached is None:
            cached = result_from_dict(self._payload["result"])
            object.__setattr__(self, "_result_cache", cached)
        return cached

    @property
    def kind(self) -> str:
        return self._payload["spec"]["kind"]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": ENVELOPE_SCHEMA_VERSION,
            "spec": dict(self._payload["spec"]),
            "result": dict(self._payload["result"]),
            "meta": dict(self._payload.get("meta", {})),
        }
