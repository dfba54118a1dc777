"""Single-spec execution: one experiment cell on one machine.

This is the engine room of :class:`~repro.experiments.session.Session`,
which hands every spec a *fresh* machine, making execution a pure function
of the spec.  The bodies are the section-4 protocols — five chrono-timed
repetitions per GEMM cell, the piggybacked powermetrics protocol for the
power study, and the STREAM thread sweep / 20-repetition GPU runs — each
evaluated from its workload's group lowering as a group of one
(:mod:`repro.workloads`), the one definition of a cell's timing that the
vectorized backend evaluates in bulk too.  Numerics are a memoized check inside the lowering, never part of the
timed path.
"""

from __future__ import annotations

from repro.core.results import GemmResult, PoweredGemmResult, StreamResult
from repro.experiments.specs import (
    ExperimentSpec,
    GemmSpec,
    PoweredGemmSpec,
    StreamSpec,
)
from repro.sim.machine import Machine
from repro.sim.vectorized import run_lowered_sequence

__all__ = [
    "execute_spec",
    "run_gemm_spec",
    "run_powered_gemm_spec",
    "run_stream_spec",
]


def run_gemm_spec(machine: Machine, spec: GemmSpec) -> GemmResult:
    """Execute one Figure-2 cell on ``machine``."""
    from repro.workloads.base import lowered_cell
    from repro.workloads.gemm import lower_gemm_group

    return run_lowered_sequence(
        machine, lowered_cell(lower_gemm_group, machine, spec)
    )


def run_powered_gemm_spec(
    machine: Machine, spec: PoweredGemmSpec
) -> PoweredGemmResult:
    """Execute one Figure-3/4 cell: timing with the power protocol piggybacked.

    "The power measurement occurs during the run in which CPU/GPU
    performance is measured ... it too sees five repetitions."
    """
    from repro.workloads.base import lowered_cell
    from repro.workloads.powered_gemm import lower_powered_gemm_group

    return run_lowered_sequence(
        machine, lowered_cell(lower_powered_gemm_group, machine, spec)
    )


def run_stream_spec(machine: Machine, spec: StreamSpec) -> StreamResult:
    """Execute one Figure-1 bar: the STREAM study on one target processor."""
    from repro.workloads.base import lowered_cell
    from repro.workloads.stream import lower_stream_group

    return run_lowered_sequence(
        machine, lowered_cell(lower_stream_group, machine, spec)
    )


def execute_spec(machine: Machine, spec: ExperimentSpec):
    """Dispatch a concrete spec to its registered workload's executor.

    The lookup goes through the workload registry (exact spec-class match),
    so any workload registered at runtime executes through the same
    session/batch machinery with no edits here — including the process
    backend's workers, which rebuild specs from their registry-codec dict
    form and land back in this dispatch.  Raises
    :class:`ConfigurationError` for spec types no workload registers.
    """
    from repro import workloads

    return workloads.workload_for_spec(spec).execute(machine, spec)
