"""STREAM experiment entry points used by figures, benches and the CLI."""

from __future__ import annotations

from repro.core.results import StreamResult
from repro.sim.machine import Machine

__all__ = ["run_stream", "figure1_row"]


def run_stream(
    machine: Machine,
    target: str,
    *,
    n_elements: int | None = None,
    repeats: int | None = None,
) -> StreamResult:
    """Run the paper's STREAM study on one processor of one chip.

    CPU runs sweep the OpenMP thread count and keep the per-kernel maximum
    (10 repetitions per setting); GPU runs take 20 repetitions.  ``None``
    takes those paper defaults; the cell is a
    :class:`~repro.experiments.specs.StreamSpec`, so any other invalid
    value raises :class:`~repro.errors.ConfigurationError`, and it runs
    the STREAM workload's lowering on ``machine``, as sessions do.
    """
    from repro.experiments.executor import run_stream_spec
    from repro.experiments.specs import StreamSpec

    spec = StreamSpec(
        chip=machine.chip.name,
        target=target,
        n_elements=n_elements,
        repeats=repeats,
    )
    return run_stream_spec(machine, spec)


def figure1_row(
    machine: Machine,
    *,
    n_elements: int | None = None,
    repeats: int | None = None,
) -> dict[str, StreamResult]:
    """Both bars of Figure 1 for one chip: ``{"cpu": ..., "gpu": ...}``."""
    return {
        target: run_stream(
            machine, target, n_elements=n_elements, repeats=repeats
        )
        for target in ("cpu", "gpu")
    }
