"""Job records and the persisted job registry of the experiment service.

A :class:`Job` is one submission — a study or sweep grid — moving through
``queued -> running -> done|failed``.  Its identity for *deduplication* is
the ``grid_hash`` (``StudySpec.study_hash()``, or the sweep's canonical-JSON
hash): while a job for a grid is in flight, resubmitting the same grid
coalesces onto it instead of queueing a second execution.  A grid submitted
*after* its job completed gets a fresh job — which the worker then resolves
entirely from the shared store (0 cells executed, ``cache_status="hit"``).

Every job persists as ``<store>/.service/jobs/<id>.json`` (atomic writes,
like envelopes), so a killed server finds its queued and running jobs on
restart and re-enqueues them; the run manifest's journal guarantees the
re-run executes only the cells that had not completed.  The ``.service``
dot-directory is reserved store metadata —
:func:`~repro.experiments.store.load_envelopes` never scans it.

Progress is observable two ways: the job record's ``done``/``total`` counts
(polled via ``GET /jobs/<id>``), and an in-memory per-job event buffer that
``GET /jobs/<id>/events`` replays and follows as NDJSON.  Events are
ephemeral by design — they narrate a run; the durable truth is the manifest
and the store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
import threading
import time
from typing import Any, Iterator, Mapping

from repro.errors import ConfigurationError
from repro.experiments.store import atomic_write_text

__all__ = [
    "SERVICE_DIRNAME",
    "JOB_STATUSES",
    "Job",
    "JobRegistry",
    "grid_hash",
    "grid_specs",
]

#: Reserved dot-directory under the store root holding service metadata
#: (job records); envelope scans skip it by contract.
SERVICE_DIRNAME = ".service"

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

#: Every status a job can report, in lifecycle order.
JOB_STATUSES = (STATUS_QUEUED, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED)

#: Statuses under which a grid's job absorbs duplicate submissions.
ACTIVE_STATUSES = (STATUS_QUEUED, STATUS_RUNNING)


def grid_hash(payload: Mapping[str, Any]) -> str:
    """Content identity of one submission payload (study or sweep dict).

    Studies already define ``study_hash()``; for sweeps (and any other
    spec-shaped payload) the same construction applies — a sha256 over the
    canonical JSON — so two submissions describe the same grid exactly when
    their hashes match.
    """
    canonical = json.dumps(dict(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def grid_specs(payload: Mapping[str, Any]) -> tuple:
    """Compile a submission payload to its concrete cell specs.

    ``kind="study"`` payloads lower through
    :meth:`~repro.study.spec.StudySpec.compile`; everything else resolves
    through the spec registry — a ``"sweep"`` expands, a single cell spec
    is a one-cell grid.  Raises :class:`ConfigurationError` for payloads
    that name no registered kind.
    """
    from repro.experiments.specs import SweepSpec, spec_from_dict
    from repro.study.spec import StudySpec

    kind = payload.get("kind")
    if kind is None:
        raise ConfigurationError("submission payload lacks a 'kind' tag")
    if kind == "study":
        return StudySpec.from_dict(payload).compile()
    spec = spec_from_dict(payload)
    if isinstance(spec, SweepSpec):
        return spec.expand()
    return (spec,)


@dataclasses.dataclass
class Job:
    """One submission's lifecycle record (JSON-round-trippable)."""

    id: str
    payload: dict[str, Any]
    grid_hash: str
    status: str = STATUS_QUEUED
    total: int = 0
    done: int = 0
    executed: int = 0
    cache_status: str | None = None
    error: str | None = None
    health: dict[str, Any] | None = None
    created: float = 0.0
    finished: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready, also the API response shape)."""
        return {
            "id": self.id,
            "payload": self.payload,
            "grid_hash": self.grid_hash,
            "status": self.status,
            "total": self.total,
            "done": self.done,
            "executed": self.executed,
            "cache_status": self.cache_status,
            "error": self.error,
            "health": self.health,
            "created": self.created,
            "finished": self.finished,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        """Rebuild a job from :meth:`to_dict` output."""
        return cls(
            id=data["id"],
            payload=dict(data["payload"]),
            grid_hash=data["grid_hash"],
            status=data.get("status", STATUS_QUEUED),
            total=int(data.get("total", 0)),
            done=int(data.get("done", 0)),
            executed=int(data.get("executed", 0)),
            cache_status=data.get("cache_status"),
            error=data.get("error"),
            health=data.get("health"),
            created=float(data.get("created", 0.0)),
            finished=data.get("finished"),
        )

    @property
    def terminal(self) -> bool:
        """Whether the job reached a final status."""
        return self.status in (STATUS_DONE, STATUS_FAILED)


class JobRegistry:
    """Thread-safe job table persisted under ``<store>/.service/jobs``.

    The registry owns job creation (including in-flight deduplication by
    grid hash), durable updates (every mutation rewrites the job's JSON
    file atomically) and the per-job event buffers the NDJSON stream
    reads.  It holds *state*, not behavior: the service's worker pool
    drives jobs through it.
    """

    def __init__(self, store_dir: str | pathlib.Path) -> None:
        self.jobs_dir = pathlib.Path(store_dir) / SERVICE_DIRNAME / "jobs"
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._active_by_grid: dict[str, str] = {}
        self._events: dict[str, list[dict[str, Any]]] = {}
        self._event_conditions: dict[str, threading.Condition] = {}
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _job_path(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / f"{job_id}.json"

    def _persist(self, job: Job) -> None:
        atomic_write_text(
            self._job_path(job.id),
            json.dumps(job.to_dict(), indent=2, sort_keys=True) + "\n",
        )

    def load(self) -> list[Job]:
        """Read every persisted job; return the interrupted ones.

        Jobs found ``queued`` or ``running`` were in flight when the
        previous server died — the caller re-enqueues them (the manifest
        makes the re-run execute only the missing cells).  Their records
        are reset to ``queued`` so a poll during the gap reads truthfully.
        """
        interrupted: list[Job] = []
        if not self.jobs_dir.is_dir():
            return interrupted
        with self._lock:
            for path in sorted(self.jobs_dir.glob("*.json")):
                try:
                    job = Job.from_dict(json.loads(path.read_text()))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"job record {path} is corrupt: {exc}"
                    ) from exc
                self._jobs[job.id] = job
                self._events.setdefault(job.id, [])
                self._event_conditions.setdefault(job.id, threading.Condition())
                if job.status in ACTIVE_STATUSES:
                    job.status = STATUS_QUEUED
                    self._active_by_grid[job.grid_hash] = job.id
                    self._persist(job)
                    interrupted.append(job)
            # Fresh ids must never collide with persisted ones.
            numeric = [
                int(job_id.split("-")[-1])
                for job_id in self._jobs
                if job_id.rsplit("-", 1)[-1].isdigit()
            ]
            self._counter = itertools.count(max(numeric, default=0) + 1)
        return interrupted

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> tuple[Job, bool]:
        """The job for one submission: ``(job, deduplicated)``.

        While a job for the same grid hash is queued or running, the
        submission coalesces onto it (``deduplicated=True``) — N identical
        in-flight submissions cost one execution.  Otherwise a fresh
        ``queued`` job is created and persisted.
        """
        payload = dict(payload)
        digest = grid_hash(payload)
        with self._lock:
            active_id = self._active_by_grid.get(digest)
            if active_id is not None:
                active = self._jobs[active_id]
                if active.status in ACTIVE_STATUSES:
                    return active, True
            job = Job(
                id=f"job-{next(self._counter):06d}",
                payload=payload,
                grid_hash=digest,
                created=time.time(),
            )
            self._jobs[job.id] = job
            self._active_by_grid[digest] = job.id
            self._events[job.id] = []
            self._event_conditions[job.id] = threading.Condition()
            self._persist(job)
        self.emit(job.id, {"event": "queued", "job": job.id})
        return job, False

    def get(self, job_id: str) -> Job:
        """The job registered under ``job_id`` (or raises, naming it)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ConfigurationError(f"unknown job {job_id!r}") from None

    def find(self, ref: str) -> Job | None:
        """Resolve a job by id, or — failing that — the *newest* job of a
        grid hash (the ``GET /results/<ref>`` convenience)."""
        with self._lock:
            job = self._jobs.get(ref)
            if job is not None:
                return job
            matches = [j for j in self._jobs.values() if j.grid_hash == ref]
            return max(matches, key=lambda j: j.created) if matches else None

    def list(self) -> list[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: (j.created, j.id))

    def counts(self) -> dict[str, int]:
        """``{status: job count}`` — the health-endpoint summary."""
        with self._lock:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            return counts

    # ------------------------------------------------------------------
    # Mutation (worker-side)
    # ------------------------------------------------------------------
    def update(self, job: Job, **fields: Any) -> None:
        """Apply field updates and persist the record atomically."""
        with self._lock:
            for name, value in fields.items():
                setattr(job, name, value)
            if job.terminal and self._active_by_grid.get(job.grid_hash) == job.id:
                del self._active_by_grid[job.grid_hash]
            self._persist(job)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def emit(self, job_id: str, event: Mapping[str, Any]) -> None:
        """Append one progress event and wake any streaming readers."""
        condition = self._event_conditions[job_id]
        with condition:
            self._events[job_id].append(dict(event))
            condition.notify_all()

    def events(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        heartbeat: float | None = None,
    ) -> Iterator[dict]:
        """Replay buffered events, then follow until the job is terminal.

        The generator yields each event dict exactly once, in order, and
        returns once a terminal event (``done``/``failed``) has been
        yielded — or after ``timeout`` seconds pass with no progress, so a
        stream over a wedged run never hangs a reader forever.

        With ``heartbeat`` set, every ``heartbeat`` seconds of silence
        yields a synthetic ``{"event": "heartbeat", ...}`` line instead of
        dead air, carrying how long the stream has been quiet — a follower
        can tell a *slow* run (heartbeats keep arriving) from a *stuck*
        connection (nothing at all).  Heartbeats do not reset the overall
        ``timeout``; only real progress does.
        """
        self.get(job_id)  # raises on unknown ids before streaming starts
        condition = self._event_conditions[job_id]
        cursor = 0
        silent = 0.0
        while True:
            batch: list[dict[str, Any]] = []
            with condition:
                while cursor >= len(self._events[job_id]):
                    job = self._jobs[job_id]
                    if job.terminal:
                        return
                    remaining = timeout - silent
                    if remaining <= 0:
                        return
                    interval = (
                        remaining
                        if heartbeat is None
                        else min(remaining, heartbeat)
                    )
                    if not condition.wait(interval):
                        silent += interval
                        if silent >= timeout:
                            return
                        break  # heartbeat due — yield it outside the lock
                else:
                    batch = self._events[job_id][cursor:]
                    cursor += len(batch)
                    silent = 0.0
            if not batch:
                yield {
                    "event": "heartbeat",
                    "job": job_id,
                    "silent_s": round(silent, 1),
                }
                continue
            for event in batch:
                yield event
                if event.get("event") in (STATUS_DONE, STATUS_FAILED):
                    return
