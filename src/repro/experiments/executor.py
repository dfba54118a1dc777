"""Single-spec execution: one experiment cell on one machine.

This is the engine room shared by :class:`~repro.experiments.session.Session`
(which hands every spec a *fresh* machine, making execution a pure function
of the spec) and the legacy :class:`~repro.core.harness.ExperimentRunner`
facade (which keeps its historical shared-machine semantics).  The bodies
are the section-4 protocol: five chrono-timed repetitions per GEMM cell,
``n^2 (2n - 1)`` operation counting, the piggybacked powermetrics protocol
for the power study, and the STREAM thread sweep / 20-repetition GPU runs.
"""

from __future__ import annotations

from repro.calibration import paper
from repro.core.gemm.base import GemmImplementation, GemmProblem
from repro.core.gemm.registry import get_implementation
from repro.core.gemm.verify import verify_result
from repro.core.power.harness import measure_gemm_power
from repro.core.results import GemmResult, PoweredGemmResult, StreamResult
from repro.core.stream.runner import run_stream
from repro.core.timer import measure_ns
from repro.errors import UnsupportedProblemError
from repro.experiments.specs import (
    ExperimentSpec,
    GemmSpec,
    PoweredGemmSpec,
    StreamSpec,
)
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy

__all__ = [
    "execute_spec",
    "run_gemm_spec",
    "run_powered_gemm_spec",
    "run_stream_spec",
]


def _resolve(
    spec_key: str, implementation: GemmImplementation | None
) -> GemmImplementation:
    return implementation if implementation is not None else get_implementation(
        spec_key
    )


def run_gemm_spec(
    machine: Machine,
    spec: GemmSpec,
    *,
    implementation: GemmImplementation | None = None,
) -> GemmResult:
    """Execute one Figure-2 cell on ``machine``.

    ``implementation`` overrides the registry lookup of ``spec.impl_key`` —
    the compatibility path for pre-instantiated implementation objects
    (e.g. ``AccelerateGemm(variant="blas")``).
    """
    impl = _resolve(spec.impl_key, implementation)
    if not impl.supports(machine, spec.n):
        raise UnsupportedProblemError(
            f"{impl.key} does not execute n={spec.n} on {machine.chip.name}"
        )
    fill = machine.numerics.policy is not NumericsPolicy.MODEL_ONLY
    problem = GemmProblem.generate(spec.n, seed=spec.seed, fill_random=fill)
    context = impl.prepare(machine, problem)

    elapsed_ns = tuple(
        measure_ns(machine, lambda: impl.execute(machine, problem, context))
        for _ in range(spec.repeats)
    )

    verified: bool | None = None
    policy = machine.numerics.effective_policy(spec.n)
    want_verify = (
        spec.verify
        if spec.verify is not None
        else policy is not NumericsPolicy.MODEL_ONLY
    )
    if want_verify:
        verified = verify_result(
            machine,
            problem,
            reduced_precision=(impl.key == "ane-fp16"),
        )
    return GemmResult(
        impl_key=impl.key,
        chip_name=machine.chip.name,
        n=spec.n,
        flop_count=paper.gemm_flop_count(spec.n),
        elapsed_ns=elapsed_ns,
        verified=verified,
    )


def run_powered_gemm_spec(
    machine: Machine,
    spec: PoweredGemmSpec,
    *,
    implementation: GemmImplementation | None = None,
) -> PoweredGemmResult:
    """Execute one Figure-3/4 cell: timing with the power protocol piggybacked.

    "The power measurement occurs during the run in which CPU/GPU
    performance is measured ... it too sees five repetitions."
    """
    impl = _resolve(spec.impl_key, implementation)
    if not impl.supports(machine, spec.n):
        raise UnsupportedProblemError(
            f"{impl.key} does not execute n={spec.n} on {machine.chip.name}"
        )
    fill = machine.numerics.policy is not NumericsPolicy.MODEL_ONLY
    problem = GemmProblem.generate(spec.n, seed=spec.seed, fill_random=fill)
    context = impl.prepare(machine, problem)

    measurements = tuple(
        measure_gemm_power(machine, impl, problem, context)
        for _ in range(spec.repeats)
    )
    # The multiplication window is the measurement window itself; the
    # protocol's warm-up is excluded from the compute timing.
    gemm = GemmResult(
        impl_key=impl.key,
        chip_name=machine.chip.name,
        n=spec.n,
        flop_count=paper.gemm_flop_count(spec.n),
        elapsed_ns=tuple(
            max(1, int(m.elapsed_ms * 1e6)) for m in measurements
        ),
    )
    return PoweredGemmResult(gemm=gemm, measurements=measurements)


def run_stream_spec(machine: Machine, spec: StreamSpec) -> StreamResult:
    """Execute one Figure-1 bar: the STREAM study on one target processor."""
    return run_stream(
        machine, spec.target, n_elements=spec.n_elements, repeats=spec.repeats
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
