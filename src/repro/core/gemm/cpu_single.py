"""CPU-Single: the naive triple-nested-loop baseline (Table 2, row 1).

"An implementation of the standard algorithm with a triple nested loop
provides a reference baseline" (section 3.2).  The numerics walk the output
row by row with the classic i/j/k ordering (fully scalar for tiny problems,
row-at-a-time for larger ones so the Python loop does not dominate); the
simulated timing models a single P-core running unvectorised code whose
efficiency collapses once the working set spills the caches.
"""

from __future__ import annotations

import numpy as np

from repro.calibration.gemm import gemm_dispatch_operation
from repro.core.gemm.base import GemmImplementation, GemmProblem
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy

__all__ = ["SingleThreadedGemm", "triple_loop_matmul"]

#: Below this size the numerics use the literal scalar triple loop.
_SCALAR_LOOP_LIMIT = 32


def triple_loop_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """The literal i/j/k loop, FP32 accumulate — the reference semantics."""
    n_i, n_k = a.shape
    n_j = b.shape[1]
    for i in range(n_i):
        for j in range(n_j):
            acc = np.float32(0.0)
            for k in range(n_k):
                acc = np.float32(acc + a[i, k] * b[k, j])
            out[i, j] = acc


class SingleThreadedGemm(GemmImplementation):
    key = "cpu-single"
    display_name = "Naive algorithm"
    framework = "C++"
    hardware = "CPU"

    def prepare(self, machine: Machine, problem: GemmProblem) -> None:
        return None

    def execute(self, machine: Machine, problem: GemmProblem, context: None) -> None:
        self.check_supports(machine, problem.n)
        n = problem.n
        policy = machine.numerics.effective_policy(n)
        if policy is NumericsPolicy.FULL:
            if n <= _SCALAR_LOOP_LIMIT:
                triple_loop_matmul(problem.a, problem.b, problem.out)
            else:
                # Row-at-a-time keeps the i-loop explicit while the inner two
                # loops are fused into a vector product of identical ordering.
                for i in range(n):
                    problem.out[i, :] = problem.a[i, :] @ problem.b
        elif policy is NumericsPolicy.SAMPLED:
            rows = machine.numerics.sampled_row_indices(n)
            for i in rows:
                problem.out[i, :] = problem.a[i, :] @ problem.b

        machine.execute(gemm_dispatch_operation(machine.chip, self.key, n))
