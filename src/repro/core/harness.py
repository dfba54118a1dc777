"""The experiment runner of section 4 — now a compatibility facade.

Historically this module *was* the execution engine; the bodies moved to
:mod:`repro.experiments.executor` when the declarative spec/session API
landed, and :class:`ExperimentRunner` remains as a thin imperative wrapper:
it translates each call into a single spec and executes it on its one
shared machine (preserving the original stateful semantics — the virtual
clock keeps advancing across calls).  New code should prefer
:class:`repro.experiments.Session`, which adds caching, batching and
persistence on top of the same executor.
"""

from __future__ import annotations

from repro.calibration import paper
from repro.core.gemm.base import GemmImplementation
from repro.core.gemm.registry import get_implementation
from repro.core.results import GemmResult, PoweredGemmResult, StreamResult
from repro.experiments.executor import (
    run_gemm_spec,
    run_powered_gemm_spec,
    run_stream_spec,
)
from repro.experiments.specs import GemmSpec, PoweredGemmSpec, StreamSpec
from repro.sim.machine import Machine

__all__ = ["ExperimentRunner"]


class ExperimentRunner:
    """Drives the paper's experiments imperatively on one machine."""

    def __init__(self, machine: Machine, *, seed: int = 0) -> None:
        self.machine = machine
        self.seed = seed

    def _impl(
        self, implementation: GemmImplementation | str
    ) -> GemmImplementation:
        if isinstance(implementation, str):
            return get_implementation(implementation)
        return implementation

    # ------------------------------------------------------------------
    # GEMM (Figure 2)
    # ------------------------------------------------------------------
    def run_gemm(
        self,
        implementation: GemmImplementation | str,
        n: int,
        *,
        repeats: int = paper.GEMM_REPEATS,
        verify: bool | None = None,
    ) -> GemmResult:
        """One Figure-2 cell: ``repeats`` timed multiplications.

        ``verify=None`` verifies whenever numerics ran (FULL or SAMPLED).
        """
        impl = self._impl(implementation)
        spec = GemmSpec(
            chip=self.machine.chip.name,
            seed=self.seed,
            impl_key=impl.key,
            n=n,
            repeats=repeats,
            verify=verify,
        )
        return run_gemm_spec(self.machine, spec)

    def run_gemm_sweep(
        self,
        implementation: GemmImplementation | str,
        sizes: tuple[int, ...] = paper.GEMM_SIZES,
        *,
        repeats: int = paper.GEMM_REPEATS,
    ) -> dict[int, GemmResult]:
        """One Figure-2 line: skip the sizes the implementation excludes."""
        impl = self._impl(implementation)
        results: dict[int, GemmResult] = {}
        for n in sizes:
            if not impl.supports(self.machine, n):
                continue
            results[n] = self.run_gemm(impl, n, repeats=repeats)
        return results

    # ------------------------------------------------------------------
    # GEMM + power (Figures 3-4)
    # ------------------------------------------------------------------
    def run_powered_gemm(
        self,
        implementation: GemmImplementation | str,
        n: int,
        *,
        repeats: int = paper.GEMM_REPEATS,
    ) -> PoweredGemmResult:
        """Figure-3/4 cell: compute timing with the piggybacked power protocol.

        "The power measurement occurs during the run in which CPU/GPU
        performance is measured ... it too sees five repetitions."
        """
        impl = self._impl(implementation)
        spec = PoweredGemmSpec(
            chip=self.machine.chip.name,
            seed=self.seed,
            impl_key=impl.key,
            n=n,
            repeats=repeats,
        )
        return run_powered_gemm_spec(self.machine, spec)

    # ------------------------------------------------------------------
    # STREAM (Figure 1)
    # ------------------------------------------------------------------
    def run_stream(
        self,
        target: str,
        *,
        n_elements: int | None = None,
        repeats: int | None = None,
    ) -> StreamResult:
        """Run the Figure-1 STREAM study on one target processor."""
        spec = StreamSpec(
            chip=self.machine.chip.name,
            seed=self.seed,
            target=target,
            n_elements=n_elements,
            repeats=repeats,
        )
        return run_stream_spec(self.machine, spec)
