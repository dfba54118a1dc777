"""Declarative study specifications: the whole cross-product grid as data.

The paper is one study — chips x workloads x variants x sizes, reported as
performance and efficiency — and a :class:`StudySpec` describes such a grid
declaratively: the chip axis plus one :class:`WorkloadAxis` per workload
family (variant keys, sizes, targets, repetition counts).  A study is
frozen, hashable and JSON-round-trippable like every other spec, and
``compile()`` lowers it to the existing concrete experiment specs through
each workload's own :class:`~repro.experiments.specs.SweepSpec` semantics —
so a study runs through any :class:`~repro.experiments.session.Session`
backend (serial / vectorized / sharded), hits the same caches,
and resumes from the same run manifests as hand-built spec lists.

:func:`run_study` is the one-call entry point: compile, execute (optionally
into a manifest-indexed store) and wrap the envelopes in a
:class:`~repro.study.frame.ResultFrame` for querying.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Iterator, Mapping

from repro.calibration import paper
from repro.errors import ConfigurationError
from repro.experiments.backends import ExecutionBackend
from repro.experiments.session import ProgressCallback, Session
from repro.experiments.specs import ExperimentSpec, SweepSpec, _check_numerics
from repro.study.frame import ResultFrame

__all__ = [
    "WorkloadAxis",
    "StudySpec",
    "run_study",
    "study_session",
]


@dataclasses.dataclass(frozen=True)
class WorkloadAxis:
    """One workload family's slice of a study grid.

    The fields mirror the generic :class:`~repro.experiments.specs.SweepSpec`
    axes; empty tuples take the workload's own defaults (the GEMM axis fills
    in the Figure-2 legend and ``paper.GEMM_SIZES``, STREAM crosses targets,
    and so on).  The study supplies chips, seed and numerics.
    """

    kind: str = "gemm"
    impl_keys: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()
    targets: tuple[str, ...] = ("cpu", "gpu")
    repeats: int | None = None
    n_elements: int | None = None
    skip_unsupported: bool = True

    def __post_init__(self) -> None:
        from repro import workloads

        workloads.get_workload(self.kind)  # unregistered kinds never compile

    def sweep(self, study: "StudySpec") -> SweepSpec:
        """This axis as a concrete sweep under ``study``'s shared axes."""
        return SweepSpec(
            kind=self.kind,
            chips=study.chips,
            impl_keys=self.impl_keys,
            sizes=self.sizes,
            targets=self.targets,
            repeats=self.repeats,
            n_elements=self.n_elements,
            seed=study.seed,
            numerics=study.numerics,
            skip_unsupported=self.skip_unsupported,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadAxis":
        """Rebuild an axis from :meth:`to_dict` output."""
        payload = dict(data)
        for name in ("impl_keys", "sizes", "targets"):
            if name in payload and payload[name] is not None:
                payload[name] = tuple(payload[name])
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class StudySpec:
    """A declarative cross-product study: chips x workload axes.

    Frozen and hashable — ``study_hash()`` is a sound identity for stores
    and reports, exactly like a cell spec's ``spec_hash``.  ``compile()``
    materialises the concrete cell specs in deterministic order (axes in
    declaration order, each expanded row-major by its workload), so the same
    study always produces the same grid, the same cache keys and the same
    envelope bytes.
    """

    name: str = "study"
    chips: tuple[str, ...] = paper.CHIPS
    axes: tuple[WorkloadAxis, ...] = ()
    seed: int = 0
    numerics: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a study needs a name")
        if not self.chips:
            raise ConfigurationError("a study needs at least one chip")
        _check_numerics(self.numerics)

    # -- compilation -------------------------------------------------------
    def sweeps(self) -> tuple[SweepSpec, ...]:
        """One concrete sweep per axis, in declaration order."""
        return tuple(axis.sweep(self) for axis in self.axes)

    def compile(self) -> tuple[ExperimentSpec, ...]:
        """The concrete cell specs of the whole grid."""
        return tuple(self.compile_iter())

    def compile_iter(self) -> Iterator[ExperimentSpec]:
        """The grid's cells as a lazy stream, in :meth:`compile` order."""
        return (
            spec for sweep in self.sweeps() for spec in sweep.expand_iter()
        )

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return self.compile_iter()

    def kinds(self) -> tuple[str, ...]:
        """The workload kinds this study covers, in axis order (deduped)."""
        return tuple(dict.fromkeys(axis.kind for axis in self.axes))

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready), tagged ``kind="study"``."""
        return {
            "kind": "study",
            "name": self.name,
            "chips": list(self.chips),
            "axes": [axis.to_dict() for axis in self.axes],
            "seed": self.seed,
            "numerics": self.numerics,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Rebuild a study from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            chips=tuple(data["chips"]),
            axes=tuple(WorkloadAxis.from_dict(a) for a in data.get("axes", ())),
            seed=int(data.get("seed", 0)),
            numerics=data.get("numerics"),
        )

    def canonical_json(self) -> str:
        """Canonical JSON (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def study_hash(self) -> str:
        """Stable content hash (hex) — the report/store identity of the study."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def study_session(
    study: StudySpec, *, fast: bool = False, **kwargs: Any
) -> Session:
    """A session matching ``study``'s shared axes (seed; figure numerics).

    ``fast=True`` selects model-only numerics (the CLI's ``--fast``); the
    default is the paper's sampled profile.  Extra keyword arguments pass
    straight to :class:`Session`.
    """
    kwargs.setdefault("numerics", "model-only" if fast else "sampled")
    return Session(seed=study.seed, **kwargs)


def run_study(
    study: StudySpec,
    session: Session | None = None,
    *,
    backend: str | ExecutionBackend | None = None,
    max_workers: int | None = None,
    out: str | pathlib.Path | None = None,
    progress: ProgressCallback | None = None,
    use_cache: bool = True,
) -> ResultFrame:
    """Compile and execute a study; return its envelopes as a query frame.

    ``session`` defaults to :func:`study_session`'s sampled-numerics
    configuration.  With ``out`` the envelopes land in a sharded,
    manifest-indexed store as cells complete — interrupting and re-running
    the same study against the same directory resumes it (only cells the
    manifest does not mark done execute), exactly like ``repro run --out``/
    ``--resume``.  Execution is byte-identical across backends by the
    session contract, so the returned frame never depends on ``backend`` or
    ``max_workers``.
    """
    if session is None:
        session = study_session(study)
    specs = study.compile()
    if out is not None:
        from repro.experiments.manifest import run_with_manifest

        envelopes, _ = run_with_manifest(
            session,
            specs,
            out,
            backend=backend,
            max_workers=max_workers,
            progress=progress,
            use_cache=use_cache,
        )
    else:
        envelopes = session.run_batch(
            specs,
            backend=backend,
            max_workers=max_workers,
            progress=progress,
            use_cache=use_cache,
        )
    return ResultFrame.from_envelopes(envelopes)
