"""Numerical verification of GEMM results.

Under FULL numerics the whole output is compared against a float64 reference;
under SAMPLED only the deterministically sampled rows are checked (the rest
of the buffer is not computed).  Tolerances account for FP32 accumulation
error growing with the reduction depth n.
"""

from __future__ import annotations

import numpy as np

from repro.core.gemm.base import GemmProblem
from repro.errors import ValidationError
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy

__all__ = ["verify_result", "fp32_gemm_tolerance"]


def fp32_gemm_tolerance(n: int) -> float:
    """Relative tolerance for an n-deep FP32 accumulation vs FP64 reference.

    Error grows ~ sqrt(n) * eps for random [0,1) inputs; the constant is
    generous because the implementations use different accumulation orders.
    """
    eps = float(np.finfo(np.float32).eps)
    return max(1e-5, 16.0 * eps * np.sqrt(float(n)))


def verify_result(
    machine: Machine,
    problem: GemmProblem,
    *,
    rtol: float | None = None,
    reduced_precision: bool = False,
) -> bool:
    """Check ``problem.out`` against the float64 reference product.

    Returns ``True`` on success, ``None``-equivalent ``True`` short-circuit
    never happens — MODEL_ONLY runs raise, since there is nothing to verify.

    Raises
    ------
    ValidationError
        If the produced values deviate beyond tolerance, or verification was
        requested for a MODEL_ONLY run.
    """
    n = problem.n
    policy = machine.numerics.effective_policy(n)
    if policy is NumericsPolicy.MODEL_ONLY:
        raise ValidationError(
            "cannot verify a MODEL_ONLY run: numerics were skipped"
        )
    tol = rtol if rtol is not None else fp32_gemm_tolerance(n)
    if reduced_precision:
        # FP16 inputs (ANE path): rounding inputs to half costs ~2^-11.
        tol = max(tol, 2.0 ** -9)

    b64 = problem.b.astype(np.float64)
    if policy is NumericsPolicy.SAMPLED:
        # Promote only the sampled rows of A: the reference reads no others.
        rows = machine.numerics.sampled_row_indices(n)
        reference = problem.a[rows, :].astype(np.float64) @ b64
        produced = problem.out[rows, :].astype(np.float64)
    else:
        reference = problem.a.astype(np.float64) @ b64
        produced = problem.out.astype(np.float64)

    scale = np.maximum(np.abs(reference), 1.0)
    max_rel = float(np.max(np.abs(produced - reference) / scale))
    if max_rel > tol:
        raise ValidationError(
            f"GEMM verification failed for n={n}: max relative error "
            f"{max_rel:.3e} exceeds tolerance {tol:.3e}"
        )
    return True
