"""Retry policy, degradation ladder bookkeeping, and the run-health report.

The fault-tolerance contract of batched execution
(:meth:`Session.run_batch`) is built from three plain-data pieces:

* :class:`RetryPolicy` — how many times a cell that fails with a
  :class:`~repro.errors.TransientError` (or subclass) is re-executed, how
  long the exponential backoff between attempts is, and the per-cell
  deadline the sharded backend enforces per shard (``cell_timeout``);
* :class:`CellFailure` — the structured error payload of one cell that
  exhausted the ladder: error class, message, attempts, spec identity.
  This is what lands in the run manifest (``status=failed``), the job
  record and the CLI output — a failed cell is *reported*, never silently
  dropped;
* :class:`RunHealth` — the per-run accounting callers receive: retries,
  serial fallbacks, worker crashes, timeouts, the failure list, and the
  wall clock lost to backoff and abandoned deadlines.

Retried or degraded cells that eventually succeed are byte-identical to an
undisturbed run — cells are pure functions of (spec, session fingerprint),
and none of the machinery here enters the fingerprint.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    TransientError,
    WorkerCrashError,
)

__all__ = ["RetryPolicy", "CellFailure", "RunHealth"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, plus the per-cell deadline.

    ``max_retries`` counts *re*-executions: a cell runs at most
    ``max_retries + 1`` times on the primary backend (plus one in-process
    fallback attempt when the failure class is a worker crash or timeout —
    the degradation ladder).  ``delay(attempt)`` is the sleep before the
    round retrying cells whose ``attempt``-th try failed:
    ``backoff_base * 2**(attempt-1)`` capped at ``backoff_cap`` — fully
    deterministic, no jitter, so chaos runs reproduce exactly.
    ``cell_timeout`` (seconds) arms hung-worker detection in the sharded
    backend (a shard gets ``cell_timeout`` × its cell count); ``None``
    disables deadlines.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    cell_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff values must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive")

    def delay(self, attempt: int) -> float:
        """Backoff before re-running cells whose ``attempt``-th try failed."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))

    def retryable(self, exc: BaseException) -> bool:
        """Whether the retry ladder applies to this failure at all."""
        return isinstance(exc, TransientError)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-ready)."""
        return {
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "cell_timeout": self.cell_timeout,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        return cls(
            max_retries=int(data.get("max_retries", 2)),
            backoff_base=float(data.get("backoff_base", 0.05)),
            backoff_cap=float(data.get("backoff_cap", 2.0)),
            cell_timeout=data.get("cell_timeout"),
        )


@dataclasses.dataclass
class CellFailure:
    """One cell's terminal failure: identity plus a structured error payload."""

    spec_hash: str
    kind: str
    error: str
    message: str
    attempts: int = 1
    index: int | None = None

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        spec_hash: str,
        kind: str,
        attempts: int,
        index: int | None = None,
    ) -> "CellFailure":
        """Capture one exception as a reportable failure record."""
        return cls(
            spec_hash=spec_hash,
            kind=kind,
            error=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            index=index,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form — the manifest's and job record's error payload."""
        return {
            "spec_hash": self.spec_hash,
            "kind": self.kind,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellFailure":
        """Rebuild a failure record from :meth:`to_dict` output."""
        return cls(
            spec_hash=data.get("spec_hash", "?"),
            kind=data.get("kind", "?"),
            error=data.get("error", "Error"),
            message=data.get("message", ""),
            attempts=int(data.get("attempts", 1)),
        )

    def __str__(self) -> str:
        return (
            f"{self.kind} cell {self.spec_hash}: {self.error}: "
            f"{self.message} (after {self.attempts} attempts)"
        )


@dataclasses.dataclass
class RunHealth:
    """What one batched run survived: retries, fallbacks, failures, time lost.

    Callers pass a fresh instance into :meth:`Session.run_batch` (or read
    ``session.last_health`` afterwards); the service attaches the report to
    the job record so ``GET /jobs/<id>`` surfaces it, and the CLI prints
    :meth:`summary` when anything non-trivial happened.  The counters
    count cells: ``retries`` and ``fallbacks`` the cells re-run on the
    primary backend and in-process, ``crashes`` and ``timeouts`` the cell
    failures of those classes (each cell of a shard a sharded pool lost).
    """

    retries: int = 0
    fallbacks: int = 0
    crashes: int = 0
    timeouts: int = 0
    wall_clock_lost_s: float = 0.0
    failures: list[CellFailure] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every cell ultimately produced an envelope."""
        return not self.failures

    @property
    def eventful(self) -> bool:
        """Whether anything worth reporting happened (retry, fallback,
        crash, timeout or failure)."""
        return bool(
            self.retries
            or self.fallbacks
            or self.crashes
            or self.timeouts
            or self.failures
        )

    def count(self, exc: BaseException) -> None:
        """Tally one cell's failure by class (crash/timeout breakdown)."""
        if isinstance(exc, WorkerCrashError):
            self.crashes += 1
        elif isinstance(exc, CellTimeoutError):
            self.timeouts += 1

    def record_failure(self, failure: CellFailure) -> None:
        """Record one cell that exhausted the ladder."""
        self.failures.append(failure)

    def summary(self) -> str:
        """One greppable line: ``2 retries, 1 fallback, 0 failed, 0.31s lost``."""
        parts = [
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
            f"{self.fallbacks} fallback{'s' if self.fallbacks != 1 else ''}",
        ]
        if self.crashes:
            parts.append(f"{self.crashes} worker crash{'es' if self.crashes != 1 else ''}")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeout{'s' if self.timeouts != 1 else ''}")
        parts.append(f"{len(self.failures)} failed")
        parts.append(f"{self.wall_clock_lost_s:.2f}s lost")
        return ", ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form — what the job record and ``--json`` carry."""
        return {
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "wall_clock_lost_s": round(self.wall_clock_lost_s, 6),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunHealth":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            retries=int(data.get("retries", 0)),
            fallbacks=int(data.get("fallbacks", 0)),
            crashes=int(data.get("crashes", 0)),
            timeouts=int(data.get("timeouts", 0)),
            wall_clock_lost_s=float(data.get("wall_clock_lost_s", 0.0)),
            failures=[
                CellFailure.from_dict(f) for f in data.get("failures", ())
            ],
        )
