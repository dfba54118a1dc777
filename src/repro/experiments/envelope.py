"""The serializable result envelope.

A :class:`ResultEnvelope` wraps one spec together with its result record and
provenance metadata in a uniform, JSON-round-trippable shell: ``repro run
--json --out results/`` persists envelopes, ``repro figure2 --from results/``
re-renders figures from them without recomputation.  Serialization covers the
*raw* fields only (the ``elapsed_ns`` column, per-kernel bandwidths,
measurement windows); every derived statistic (``best_gflops``, ``max_gbs``,
``efficiency_gflops_per_w``) is recomputed from them, so a round trip
reproduces the statistics to full precision — JSON preserves finite doubles
exactly.  An envelope's text is one compact canonical JSON object (sorted
keys, no whitespace), the form every store writes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from typing import Any, Mapping, Sequence

from repro._version import __version__
from repro.errors import ConfigurationError, VersionMismatchError
from repro.experiments.specs import ExperimentSpec, spec_from_dict

__all__ = [
    "ENVELOPE_SCHEMA_VERSION",
    "ResultEnvelope",
    "result_to_dict",
    "result_from_dict",
]

#: Bumped whenever the on-disk envelope layout changes shape.  Schema 2
#: stores a timed result's repetitions as one ``"elapsed_ns": [ns, ...]``
#: list (schema 1 wrote one ``{"repetition", "elapsed_ns"}`` object each).
ENVELOPE_SCHEMA_VERSION = 2


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


def _stamped(spec: ExperimentSpec, meta: Mapping[str, Any] | None) -> dict[str, Any]:
    """``meta`` under the standard provenance fields every envelope carries."""
    stamped = {
        "spec_hash": spec.spec_hash(),
        "repro_version": __version__,
    }
    if meta:
        stamped.update(meta)
    return stamped


def _check_schema(data: Any) -> None:
    """Refuse anything but a current-schema envelope payload.

    A payload without an integer ``schema`` is corrupt; a valid envelope
    of another schema is stale, and raises :class:`VersionMismatchError`
    naming the ``repro`` version that wrote it.
    """
    schema = data.get("schema") if isinstance(data, Mapping) else None
    if type(schema) is not int:
        raise ConfigurationError(f"not an envelope: schema is {schema!r}")
    if schema != ENVELOPE_SCHEMA_VERSION:
        meta = data.get("meta")
        written_by = meta.get("repro_version") if isinstance(meta, Mapping) else None
        raise VersionMismatchError(
            f"an envelope of schema {schema} (this version reads "
            f"{ENVELOPE_SCHEMA_VERSION})",
            str(written_by or "unknown"),
            __version__,
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
        return cls(spec=spec, result=result, meta=_stamped(spec, meta))

    @classmethod
    def deferred(
        cls,
        spec: ExperimentSpec,
        results: Sequence[Mapping[str, Any]],
        position: int,
        *,
        session: Mapping[str, Any],
        cache_key: str,
    ) -> "ResultEnvelope":
        """Wrap a result that is still plain data, without decoding it.

        ``results[position]`` is the result's :func:`result_to_dict` form —
        the sharded backend passes one shard's worker output, which is
        unpickled on the first such read.  The envelope equals
        ``create(spec, result, meta={"session": session, "cache_key":
        cache_key})``, but does that work only when asked: ``meta`` is
        stamped on its first read (from a private copy of ``session``),
        ``result`` is decoded on its first read, and
        ``to_dict``/``to_json`` serve the plain data as it came.  Reading
        ``spec``, ``kind``, ``spec_hash`` or ``meta`` never touches
        ``results``.
        """
        return _DeferredEnvelope(spec, results, position, session, cache_key)

    @property
    def kind(self) -> str:
        """The spec's registered workload kind (``gemm``, ``stream``, ...)."""
        return self.spec.kind

    @property
    def spec_hash(self) -> str:
        """The spec's content hash (also stamped into ``meta``)."""
        return self.meta.get("spec_hash") or self.spec.spec_hash()

    def _result_data(self) -> dict[str, Any]:
        return result_to_dict(self.result)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: schema version, spec, result, meta."""
        return {
            "schema": ENVELOPE_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "result": self._result_data(),
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

    def to_json(self) -> str:
        """Compact canonical JSON text: sorted keys, no whitespace.

        The same form as :meth:`ExperimentSpec.canonical_json`, and the
        one line every store writes per envelope file.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def __eq__(self, other: Any) -> bool:
        # Field-value equality across eager and deferred envelopes — the
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
        scan — the store and run manifests load through here.  A refusal
        keeps its type (a stale file stays a :class:`VersionMismatchError`)
        and gains the path.
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
            exc.args = (f"envelope file {path}: {exc}",)
            raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"envelope file {path} is corrupt or not an envelope: {exc}"
            ) from exc


class _DeferredEnvelope(ResultEnvelope):
    """An envelope over a result's plain data; see :meth:`ResultEnvelope.deferred`.

    ``meta`` and ``result`` are data descriptors that build their value on
    first read and memoize it.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        results: Sequence[Mapping[str, Any]],
        position: int,
        session: Mapping[str, Any],
        cache_key: str,
    ) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_results", results)
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_session", session)
        object.__setattr__(self, "_cache_key", cache_key)

    @property
    def meta(self) -> Mapping[str, Any]:
        meta = getattr(self, "_meta", None)
        if meta is None:
            meta = _stamped(
                self.spec,
                {
                    "session": copy.deepcopy(self._session),
                    "cache_key": self._cache_key,
                },
            )
            object.__setattr__(self, "_meta", meta)
        return meta

    @property
    def result(self) -> Any:
        result = getattr(self, "_result", None)
        if result is None:
            result = result_from_dict(self._results[self._position])
            object.__setattr__(self, "_result", result)
        return result

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def _result_data(self) -> dict[str, Any]:
        return dict(self._results[self._position])
