"""CPU-Accelerate: ``cblas_sgemm`` / vDSP on the AMX units (Table 2, row 2).

Host code mirrors the paper's Listing 1::

    cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans,
                n, n, n, 1, left, n, right, n, 0, out, n);

The BLAS and vDSP variants "perform nearly identically ... they assumedly
both run on AMX" (section 5.2); both are offered here and route to the same
AMX timing model.
"""

from __future__ import annotations

import numpy as np

from repro.accelerate import (
    CBLAS_NO_TRANS,
    CBLAS_ROW_MAJOR,
    cblas_sgemm,
    vDSP_mmul,
)
from repro.calibration.gemm import gemm_dispatch_operation
from repro.core.gemm.base import GemmImplementation, GemmProblem
from repro.errors import ConfigurationError
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy

__all__ = ["AccelerateGemm"]


class AccelerateGemm(GemmImplementation):
    key = "cpu-accelerate"
    display_name = "BLAS/vDSP"
    framework = "Accelerate"
    hardware = "CPU"

    def __init__(self, variant: str = "vdsp") -> None:
        if variant not in ("blas", "vdsp"):
            raise ConfigurationError(
                f"Accelerate variant must be 'blas' or 'vdsp', got {variant!r}"
            )
        self.variant = variant

    def prepare(self, machine: Machine, problem: GemmProblem) -> None:
        return None

    def execute(self, machine: Machine, problem: GemmProblem, context: None) -> None:
        self.check_supports(machine, problem.n)
        n = problem.n
        policy = machine.numerics.effective_policy(n)
        if policy is NumericsPolicy.FULL:
            if self.variant == "blas":
                cblas_sgemm(
                    CBLAS_ROW_MAJOR,
                    CBLAS_NO_TRANS,
                    CBLAS_NO_TRANS,
                    n,
                    n,
                    n,
                    1.0,
                    problem.a,
                    n,
                    problem.b,
                    n,
                    0.0,
                    problem.out,
                    n,
                )
            else:
                vDSP_mmul(problem.a, 1, problem.b, 1, problem.out, 1, n, n, n)
        elif policy is NumericsPolicy.SAMPLED:
            rows = machine.numerics.sampled_row_indices(n)
            problem.out[rows, :] = (problem.a[rows, :] @ problem.b).astype(
                np.float32, copy=False
            )

        machine.execute(gemm_dispatch_operation(machine.chip, self.key, n))
