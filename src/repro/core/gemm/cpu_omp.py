"""CPU-OMP: multi-threaded tiled matrix multiplication with OpenMP.

"We also use a multi-threaded tiled matrix-matrix multiplication with
OpenMP, using an open-source implementation" (section 3.2, citing the
Block-Matrix-Multiplication-OpenMP repository).  The numerics reproduce that
code's structure — a parallel-for over row blocks with an inner blocked
k/j loop — through :class:`repro.omp.OpenMPRuntime`; timing models all CPU
cores running the (unvectorised) blocked loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.calibration.gemm import gemm_dispatch_operation
from repro.core.gemm.base import GemmImplementation, GemmProblem
from repro.omp import OpenMPRuntime, Schedule
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy

__all__ = ["OpenMPTiledGemm", "BLOCK"]

#: Block edge of the open-source tiled algorithm.
BLOCK = 64


@dataclasses.dataclass
class _OmpContext:
    runtime: OpenMPRuntime
    num_threads: int


def _blocked_rows(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, row_start: int, row_stop: int
) -> None:
    """The inner blocked loops for one chunk of rows (k-blocked accumulate)."""
    n = b.shape[0]
    out[row_start:row_stop, :] = 0.0
    for k0 in range(0, n, BLOCK):
        k1 = min(k0 + BLOCK, n)
        a_blk = a[row_start:row_stop, k0:k1]
        for j0 in range(0, n, BLOCK):
            j1 = min(j0 + BLOCK, n)
            out[row_start:row_stop, j0:j1] += a_blk @ b[k0:k1, j0:j1]


class OpenMPTiledGemm(GemmImplementation):
    key = "cpu-omp"
    display_name = "Tiled algorithm (OpenMP)"
    framework = "C++/OpenMP"
    hardware = "CPU"
    #: The paper's Table 2 omits this row; the text and figures include it.
    in_table2 = False

    def prepare(self, machine: Machine, problem: GemmProblem) -> _OmpContext:
        threads = machine.chip.total_cores
        runtime = OpenMPRuntime()
        runtime.set_num_threads(threads)
        return _OmpContext(runtime=runtime, num_threads=threads)

    def execute(
        self, machine: Machine, problem: GemmProblem, context: _OmpContext
    ) -> None:
        self.check_supports(machine, problem.n)
        n = problem.n
        policy = machine.numerics.effective_policy(n)
        if policy is NumericsPolicy.FULL:
            context.runtime.parallel_for(
                n,
                lambda start, stop, thread: _blocked_rows(
                    problem.a, problem.b, problem.out, start, stop
                ),
                schedule=Schedule.parse("static"),
            )
        elif policy is NumericsPolicy.SAMPLED:
            rows = machine.numerics.sampled_row_indices(n)
            problem.out[rows, :] = (problem.a[rows, :] @ problem.b).astype(
                np.float32, copy=False
            )

        machine.execute(gemm_dispatch_operation(machine.chip, self.key, n))
