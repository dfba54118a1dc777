"""Run manifests: the JSON index that makes experiment campaigns resumable.

A campaign grid (``repro run --out DIR``) multiplies into thousands of
cells; interrupting it used to throw the half-finished work away because
the store was just a directory of files with no record of what the run
*intended*.  A :class:`RunManifest` fixes that: it lives as
``manifest.json`` alongside the envelopes and records, for every cell of
the run, its workload kind, spec hash, serialized spec and completion
status — plus the session fingerprint (and, when reconstructible, the
session configuration) the cells execute under.

:func:`run_with_manifest` is the write path: it persists each envelope to
the sharded store layout and checkpoints completion *as cells complete*, so
an interrupt loses at most the in-flight cells.  Per-cell checkpoints go to
an append-only journal (``manifest.journal``, one JSON line per completed
cell) rather than rewriting the whole manifest — O(1) per cell instead of
O(grid) — and the journal is folded back into ``manifest.json`` whenever a
manifest is loaded or a run completes.  Running it again over the
same directory — or ``repro run --resume DIR``, which rebuilds the session
and specs from the manifest alone — skips every cell already marked done
by manifest lookup instead of re-executing it, and the completed store
renders byte-identically to an uninterrupted run.

Because every cell is a pure function of (spec, session fingerprint), a
resumed run is indistinguishable from an uninterrupted one; the manifest
refuses to resume under a session whose fingerprint differs from the
recorded one, naming the mismatched fields.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError, VersionMismatchError
from repro.experiments.envelope import ResultEnvelope
from repro.experiments.specs import ExperimentSpec, SweepSpec, spec_from_dict
from repro.experiments.store import (
    MANIFEST_FILENAME,
    atomic_write_text,
    envelope_path,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.backends import ExecutionBackend
    from repro.experiments.session import Session

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "JOURNAL_FILENAME",
    "STATUS_PENDING",
    "STATUS_DONE",
    "STATUS_FAILED",
    "CellRecord",
    "RunManifest",
    "run_with_manifest",
]

#: Bumped whenever the on-disk manifest layout changes shape.
MANIFEST_SCHEMA_VERSION = 1

#: Per-cell completion checkpoints between full manifest saves: one JSON
#: line per completed cell, appended as it finishes.
JOURNAL_FILENAME = "manifest.journal"

STATUS_PENDING = "pending"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@dataclasses.dataclass
class CellRecord:
    """One cell of a manifested run: identity, serialized spec, status.

    A failed cell carries the structured error payload
    (:meth:`CellFailure.to_dict <repro.experiments.resilience.CellFailure>`)
    in ``error`` — the failure is *recorded*, never silently dropped, and a
    resume re-executes the cell (``failed`` is not ``done``).
    """

    kind: str
    spec_hash: str
    spec: dict[str, Any]
    status: str = STATUS_PENDING
    path: str | None = None
    error: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready)."""
        data = {
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "spec": self.spec,
            "status": self.status,
            "path": self.path,
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            spec_hash=data["spec_hash"],
            spec=dict(data["spec"]),
            status=data.get("status", STATUS_PENDING),
            path=data.get("path"),
            error=data.get("error"),
        )


def _session_config(session: "Session") -> dict[str, Any] | None:
    """JSON-able constructor payload for :meth:`RunManifest.make_session`.

    ``None`` when the session is not reconstructible from plain data (a
    custom ``machine_factory`` is an arbitrary callable) — such runs still
    manifest and resume in-process, but not via ``repro run --resume``.
    """
    from repro.experiments.session import _config_fingerprint

    if session.machine_factory is not None:
        return None
    return {
        # same shape the session fingerprint uses, so the two stay in sync
        "numerics": _config_fingerprint(session.numerics),
        "seed": session.seed,
        "noise_sigma": session.noise_sigma,
        "thermal_enabled": session.thermal_enabled,
    }


class RunManifest:
    """The JSON index of one (possibly interrupted) experiment run."""

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        fingerprint: Mapping[str, Any],
        session_config: Mapping[str, Any] | None,
        cells: "dict[str, CellRecord] | None" = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.fingerprint = dict(fingerprint)
        self.session_config = (
            dict(session_config) if session_config is not None else None
        )
        #: Insertion-ordered ``spec_hash -> CellRecord`` (run order).
        self.cells: dict[str, CellRecord] = cells if cells is not None else {}

    # ------------------------------------------------------------------
    # Construction / persistence
    # ------------------------------------------------------------------
    @property
    def path(self) -> pathlib.Path:
        """Where this manifest lives (``<directory>/manifest.json``)."""
        return self.directory / MANIFEST_FILENAME

    @property
    def journal_path(self) -> pathlib.Path:
        """The append-only per-cell checkpoint file next to the manifest."""
        return self.directory / JOURNAL_FILENAME

    @classmethod
    def create(
        cls,
        directory: str | pathlib.Path,
        session: "Session",
        specs: Iterable[ExperimentSpec],
    ) -> "RunManifest":
        """A fresh manifest: every spec recorded as a pending cell."""
        manifest = cls(
            directory,
            fingerprint=session.fingerprint(),
            session_config=_session_config(session),
        )
        manifest.merge_specs(specs)
        return manifest

    @classmethod
    def load(cls, directory: str | pathlib.Path) -> "RunManifest":
        """Read ``manifest.json`` from ``directory``.

        Raises :class:`ConfigurationError` — naming the path — when the
        manifest is missing, truncated or structurally invalid.
        """
        path = pathlib.Path(directory) / MANIFEST_FILENAME
        if not path.is_file():
            raise ConfigurationError(f"no run manifest at {path}")
        try:
            data = json.loads(path.read_text())
            schema = data.get("schema")
            if schema != MANIFEST_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"unsupported manifest schema {schema} "
                    f"(this version reads {MANIFEST_SCHEMA_VERSION})"
                )
            cells = {}
            for cell_data in data["cells"]:
                record = CellRecord.from_dict(cell_data)
                cells[record.spec_hash] = record
            manifest = cls(
                path.parent,
                fingerprint=data["session"],
                session_config=data.get("session_config"),
                cells=cells,
            )
            manifest._apply_journal()
            return manifest
        except ConfigurationError:
            raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"run manifest {path} is corrupt: {exc}"
            ) from exc

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready)."""
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "session": self.fingerprint,
            "session_config": self.session_config,
            "cells": [record.to_dict() for record in self.cells.values()],
        }

    def save(self) -> pathlib.Path:
        """Atomically write the manifest (temp file + rename).

        The full manifest now reflects everything the journal recorded, so
        the journal — if any — is retired afterwards.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(text + "\n")
        os.replace(tmp, self.path)
        self.journal_path.unlink(missing_ok=True)
        return self.path

    def checkpoint(self, envelope: ResultEnvelope, path: pathlib.Path) -> None:
        """Record one completed cell durably, in O(1).

        Marks the cell done in memory and appends a single JSON line —
        spec hash and store path only, never the spec itself — to the
        journal instead of rewriting the whole manifest: a
        thousands-of-cell campaign would otherwise spend O(grid)
        serialization per cell.  For on-grid cells (the overwhelmingly
        common case) the append touches no spec codec at all; a cell
        executed outside the recorded grid is indexed first, reusing the
        spec's memoized serialized form.  :meth:`load` folds the journal
        back in, so an interrupt loses at most the in-flight cells.
        """
        self.mark_done(envelope, path)
        record = self.cells[envelope.spec_hash]
        line = json.dumps(
            {"spec_hash": record.spec_hash, "path": record.path},
            sort_keys=True,
        )
        with open(self.journal_path, "a") as journal:
            journal.write(line + "\n")
            journal.flush()

    def checkpoint_failed(
        self, spec: ExperimentSpec, error: Mapping[str, Any]
    ) -> None:
        """Record one *failed* cell durably, in O(1).

        Mirrors :meth:`checkpoint` for cells that exhausted the retry
        ladder: the cell is marked ``failed`` with its structured error
        payload in memory and in the journal, so an interrupt cannot turn
        a reported failure back into a silent pending cell.  A later
        resume re-executes it (and :meth:`mark_done` clears the error).
        """
        self.mark_failed(spec, error)
        line = json.dumps(
            {
                "spec_hash": spec.spec_hash(),
                "status": STATUS_FAILED,
                "error": dict(error),
            },
            sort_keys=True,
        )
        with open(self.journal_path, "a") as journal:
            journal.write(line + "\n")
            journal.flush()

    def _apply_journal(self) -> None:
        """Fold journal checkpoints into the cell table (tolerating a torn
        final line from an interrupt mid-append)."""
        if not self.journal_path.is_file():
            return
        for line in self.journal_path.read_text().splitlines():
            try:
                entry = json.loads(line)
                record = self.cells.get(entry["spec_hash"])
                status = entry.get("status", STATUS_DONE)
                journal_file_path = (
                    entry["path"] if status == STATUS_DONE else None
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                break  # torn tail — everything after it never completed
            if record is None:
                continue
            record.status = status
            record.path = journal_file_path
            record.error = (
                entry.get("error") if status == STATUS_FAILED else None
            )

    # ------------------------------------------------------------------
    # Cell bookkeeping
    # ------------------------------------------------------------------
    def merge_specs(self, specs: Iterable[ExperimentSpec]) -> None:
        """Record any not-yet-known specs as pending cells (in order)."""
        for spec in specs:
            spec_hash = spec.spec_hash()
            if spec_hash not in self.cells:
                self.cells[spec_hash] = CellRecord(
                    kind=spec.kind, spec_hash=spec_hash, spec=spec.to_dict()
                )

    def specs(self) -> tuple[ExperimentSpec, ...]:
        """Every cell's spec, rebuilt through the registry, in run order."""
        return tuple(
            spec_from_dict(record.spec) for record in self.cells.values()
        )

    def is_done(self, spec: ExperimentSpec) -> bool:
        """Whether ``spec``'s cell is already marked complete."""
        record = self.cells.get(spec.spec_hash())
        return record is not None and record.status == STATUS_DONE

    def mark_done(self, envelope: ResultEnvelope, path: pathlib.Path) -> None:
        """Record one completed cell and its store-relative envelope path."""
        record = self.cells.get(envelope.spec_hash)
        if record is None:  # a cell executed outside the recorded grid
            record = CellRecord(
                kind=envelope.kind,
                spec_hash=envelope.spec_hash,
                spec=envelope.spec.to_dict(),
            )
            self.cells[envelope.spec_hash] = record
        record.status = STATUS_DONE
        record.path = pathlib.Path(path).as_posix()
        record.error = None  # a re-executed failure is a failure no more

    def mark_failed(
        self, spec: ExperimentSpec, error: Mapping[str, Any]
    ) -> None:
        """Record one failed cell and its structured error payload."""
        spec_hash = spec.spec_hash()
        record = self.cells.get(spec_hash)
        if record is None:  # a cell executed outside the recorded grid
            record = CellRecord(
                kind=spec.kind, spec_hash=spec_hash, spec=spec.to_dict()
            )
            self.cells[spec_hash] = record
        record.status = STATUS_FAILED
        record.path = None
        record.error = dict(error)

    def failed_cells(self) -> tuple[CellRecord, ...]:
        """Every cell currently marked failed, in run order."""
        return tuple(
            record
            for record in self.cells.values()
            if record.status == STATUS_FAILED
        )

    def status_counts(self) -> dict[str, int]:
        """``{status: cell count}`` — the resume progress summary."""
        counts: dict[str, int] = {}
        for record in self.cells.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Session compatibility
    # ------------------------------------------------------------------
    def check_session(self, session: "Session") -> None:
        """Refuse to mix sessions: results are pure only per fingerprint.

        A manifest written by another ``repro`` version raises
        :class:`~repro.errors.VersionMismatchError`.
        """
        theirs = session.fingerprint()
        if theirs == self.fingerprint:
            return
        written_by = self.fingerprint.get("repro_version", "unknown")
        if written_by != theirs["repro_version"]:
            raise VersionMismatchError(
                str(self.path), written_by, theirs["repro_version"]
            )
        differing = sorted(
            key
            for key in set(theirs) | set(self.fingerprint)
            if theirs.get(key) != self.fingerprint.get(key)
        )
        raise ConfigurationError(
            f"session fingerprint does not match the run manifest at "
            f"{self.path} (differs in: {', '.join(differing)}); resuming "
            f"under a different configuration would mix incompatible results"
        )

    def make_session(self, **overrides: Any) -> "Session":
        """Rebuild the recorded session (the ``--resume`` entry point)."""
        from repro.experiments.session import Session
        from repro.sim.policy import NumericsConfig, NumericsPolicy

        if self.session_config is None:
            raise ConfigurationError(
                f"the run manifest at {self.path} was written by a session "
                f"with a custom machine_factory; rebuild that session and "
                f"resume with run_with_manifest() instead of --resume"
            )
        config = dict(self.session_config)
        numerics = config.pop("numerics")
        session = Session(
            numerics=NumericsConfig(
                policy=NumericsPolicy(numerics["policy"]),
                full_threshold=int(numerics["full_threshold"]),
                sample_rows=int(numerics["sample_rows"]),
            ),
            **config,
            **overrides,
        )
        self.check_session(session)
        return session

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        counts = self.status_counts()
        return f"RunManifest({self.path}, {counts})"


def run_with_manifest(
    session: "Session",
    specs: "Iterable[ExperimentSpec] | SweepSpec",
    directory: str | pathlib.Path,
    *,
    backend: "str | ExecutionBackend | None" = None,
    max_workers: int | None = None,
    progress=None,
    use_cache: bool = True,
    manifest: "RunManifest | None" = None,
    on_mismatch: str = "replace",
    load_done: bool = True,
    on_error: str = "raise",
    retry=None,
    health=None,
) -> tuple[list[ResultEnvelope], RunManifest]:
    """Execute ``specs`` into a manifest-indexed, resumable store.

    Creates (or loads and extends) the manifest under ``directory``, skips
    every cell it already marks done — loading those envelopes from disk —
    and executes only the rest, persisting each envelope (sharded layout)
    and checkpointing the manifest as cells complete.  ``progress`` counts
    over the *whole* grid, so a resumed run reports ``[already-done +
    k / total]``.  Returns the envelopes in input order plus the manifest.

    A caller that already loaded the directory's manifest (the CLI resume
    path) passes it via ``manifest`` to skip a redundant reload, and one
    that only needs this run's new results passes ``load_done=False`` to
    skip re-reading already-done envelopes from disk (the returned list
    then holds only the executed cells, still in input order — resuming a
    near-complete thousand-cell campaign shouldn't start by parsing a
    thousand JSON files).  When an
    existing manifest carries a *different* session fingerprint,
    ``on_mismatch`` decides: ``"replace"`` (default) starts a fresh
    manifest for this run — done cells of the old run are not skipped, but
    their envelope files stay in the store, preserving the mixed-session
    store contract — while ``"error"`` refuses, naming the mismatch.  A
    manifest written by another ``repro`` version is refused either way,
    with :class:`~repro.errors.VersionMismatchError`, before anything is
    written: that version's envelope files would stay beside this one's,
    and no version could read the store any more.

    Failure semantics (``on_error``, ``retry``, ``health`` — see
    :meth:`Session.run_batch`): every cell that exhausts the retry ladder
    is checkpointed into the manifest as ``status=failed`` with its
    structured error payload, durably, before ``on_error`` decides whether
    the call raises.  Failed cells — like pending ones — re-execute on the
    next run over the same directory.  Cells whose manifest says done but
    whose envelope file is corrupt (a torn write) are quarantined and
    demoted to pending, so a resume heals the store to byte-identical.
    """
    if on_mismatch not in ("replace", "error"):
        raise ConfigurationError(
            f"on_mismatch must be 'replace' or 'error', got {on_mismatch!r}"
        )
    root = pathlib.Path(directory)
    spec_list: Sequence[ExperimentSpec] = (
        specs.expand() if isinstance(specs, SweepSpec) else list(specs)
    )
    if manifest is None and root.joinpath(MANIFEST_FILENAME).is_file():
        manifest = RunManifest.load(root)
    if manifest is not None:
        fingerprint = session.fingerprint()
        if manifest.fingerprint != fingerprint:
            written_by = manifest.fingerprint.get("repro_version")
            if on_mismatch == "error" or written_by != fingerprint["repro_version"]:
                manifest.check_session(session)  # raises, naming the fields
            # a manifest describes one run configuration; re-running the
            # store under another session starts a fresh index (existing
            # envelope files remain untouched until overwritten by hash)
            manifest = RunManifest.create(root, session, spec_list)
        else:
            manifest.merge_specs(spec_list)
    else:
        manifest = RunManifest.create(root, session, spec_list)
    manifest.save()

    from repro.experiments.store import quarantine_file

    by_hash: dict[str, ResultEnvelope] = {}
    pending: list[ExperimentSpec] = []
    for spec in spec_list:
        record = manifest.cells[spec.spec_hash()]
        if record.status == STATUS_DONE and record.path is not None:
            if not load_done:
                continue
            try:
                by_hash[record.spec_hash] = ResultEnvelope.load(
                    root / record.path
                )
            except ConfigurationError as exc:
                # the manifest says done but the file vanished or its bytes
                # are bad (a torn write): quarantine bad bytes as evidence,
                # demote the cell and heal the store by re-executing
                if not isinstance(exc.__cause__, FileNotFoundError):
                    quarantine_file(root, root / record.path, reason=str(exc))
                record.status = STATUS_PENDING
                record.path = None
                pending.append(spec)
        else:
            pending.append(spec)

    total = len(spec_list)
    already_done = total - len(pending)

    def checkpoint(completed: int, _pending_total: int, envelope) -> None:
        path = envelope_path(root, envelope)
        atomic_write_text(path, envelope.to_json() + "\n")
        if session.fault_plan is not None:
            # the write-site injection point: tear the envelope we just
            # committed, the way a disk dying between write and sync would
            session.fault_plan.tear(envelope.spec_hash, path)
        manifest.checkpoint(envelope, path.relative_to(root))
        if progress is not None:
            progress(already_done + completed, total, envelope)

    def record_failure(spec, failure) -> None:
        manifest.checkpoint_failed(spec, failure.to_dict())

    executed = session.run_batch(
        pending,
        backend=backend,
        max_workers=max_workers,
        progress=checkpoint,
        use_cache=use_cache,
        on_error=on_error,
        retry=retry,
        health=health,
        on_failure=record_failure,
    )
    manifest.save()  # fold the journal into the full manifest
    for envelope in executed:
        if envelope is not None:  # failed cells leave holes under "collect"
            by_hash[envelope.spec_hash] = envelope
    ordered = [
        by_hash[spec.spec_hash()]
        for spec in spec_list
        if spec.spec_hash() in by_hash
    ]
    return ordered, manifest
