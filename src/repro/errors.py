"""Exception hierarchy shared by every subsystem of :mod:`repro`.

All library errors derive from :class:`ReproError` so downstream users can
catch one base class.  Subsystems raise the most specific subclass available;
the Metal simulation layer additionally defines API-shaped errors in
:mod:`repro.metal.errors` that derive from these.
"""

from __future__ import annotations

import copyreg

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnknownChipError",
    "UnknownDeviceError",
    "UnknownImplementationError",
    "CalibrationError",
    "VersionMismatchError",
    "SimulationError",
    "TransientError",
    "WorkerCrashError",
    "CellTimeoutError",
    "ClockError",
    "AllocationError",
    "AlignmentError",
    "ValidationError",
    "ProtocolError",
    "ParseError",
    "UnsupportedProblemError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""

    def __reduce__(self):
        # Rebuild from ``args`` and attributes without calling __init__, so
        # a subclass whose constructor formats its message from other
        # arguments (UnknownChipError, VersionMismatchError) crosses a
        # process boundary with its type and message intact.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigurationError(ReproError):
    """An object was constructed or configured with inconsistent parameters."""


class UnknownChipError(ConfigurationError):
    """A chip name was not found in the catalog."""

    def __init__(self, name: str, known: tuple[str, ...] = ()) -> None:
        msg = f"unknown chip {name!r}"
        if known:
            msg += f" (known: {', '.join(known)})"
        super().__init__(msg)
        self.name = name
        self.known = known


class UnknownDeviceError(ConfigurationError):
    """A device model was not found in the catalog."""


class UnknownImplementationError(ConfigurationError):
    """A GEMM/STREAM implementation key was not found in the registry."""


class CalibrationError(ConfigurationError):
    """Calibration data is missing or internally inconsistent."""


class VersionMismatchError(ConfigurationError):
    """Stored results were written by another ``repro`` version.

    Envelope bytes are a pure function of (spec, session fingerprint) only
    within one version: a version bump marks an intended change to them, so
    a store from another version cannot be resumed or extended.
    """

    def __init__(self, path: str, written_by: str, running: str) -> None:
        super().__init__(
            f"{path} was written by repro {written_by}, but this is repro "
            f"{running}, whose results differ; re-run into a fresh directory"
        )
        self.written_by = written_by
        self.running = running


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class TransientError(ReproError):
    """A cell execution failed in a way that may succeed on retry.

    The retry layer (:mod:`repro.experiments.resilience`) re-executes cells
    that fail with this class — or any subclass — with bounded attempts and
    exponential backoff; every other exception class is treated as a hard
    failure and reported without retrying.  Because cells are pure
    functions of (spec, session fingerprint), a retried cell that succeeds
    is byte-identical to one that never failed.
    """


class WorkerCrashError(TransientError):
    """A worker process died (or its pool broke) while executing a cell.

    The sharded backend reports it through the failure channel for every
    cell of a shard its pool lost — a ``BrokenProcessPool``, an
    ``os._exit`` in the worker, an OOM kill — and replaces the pool.
    Retryable: ``Session.run_batch`` retries the cells, and cells that keep
    failing get one in-process serial attempt.
    """


class CellTimeoutError(TransientError):
    """A cell's shard exceeded its execution deadline.

    The sharded backend reports it for every cell of a shard that runs
    past ``cell_timeout`` × its cell count, and abandons the pool holding
    the hung worker without joining it.  Retryable: a hang caused by
    transient contention clears on re-execution, and cells that keep
    hanging get one in-process serial attempt, where no deadline preempts.
    """


class ClockError(SimulationError):
    """The virtual clock was asked to move backwards or by a negative delta."""


class AllocationError(ReproError):
    """A simulated memory allocation failed (size, bounds, exhaustion)."""


class AlignmentError(AllocationError):
    """A buffer does not satisfy a page-alignment requirement.

    The paper requires 16,384-byte page alignment so Metal can wrap matrices
    with no-copy shared buffers (section 3.2).
    """


class ValidationError(ReproError):
    """Numerical verification of a kernel result failed."""


class ProtocolError(ReproError):
    """A measurement protocol (e.g. powermetrics SIGINFO flow) was violated."""


class ParseError(ReproError):
    """Text output (e.g. powermetrics samples) could not be parsed."""


class UnsupportedProblemError(ReproError):
    """An implementation cannot run the requested problem size/precision.

    Mirrors the paper's exclusion of n >= 8192 for the CPU-Single and CPU-OMP
    implementations (section 4).
    """
