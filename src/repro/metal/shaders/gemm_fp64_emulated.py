"""FP64 GEMM via double-float (two-FP32) emulation.

The M-series GPUs "lack native FP64 support (which can be emulated)"
(section 1).  This kernel implements the classic double-float representation:
each FP64 value is carried as an unevaluated sum ``hi + lo`` of two FP32
numbers, and products/sums use error-free transformations (TwoProd via FMA,
TwoSum).  Throughput is modelled at a calibrated ~20x penalty against the
FP32 MPS path, which is why the paper treats FP64 workloads as a poor fit
for the M-series GPU.

Buffer layout: A_hi, A_lo, B_hi, B_lo, C_hi, C_lo at indices 0-5; the
dimension is the uint constant at index 6.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.calibration.gemm import gemm_dispatch_operation
from repro.metal.shaders import ShaderContext, register_shader
from repro.metal.shaders._gemm_common import validate_gemm_grid
from repro.sim.policy import NumericsPolicy

__all__ = [
    "EmulatedFp64GemmShader",
    "split_to_float_pair",
    "merge_float_pair",
    "double_float_matmul",
]


def split_to_float_pair(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose FP64 values into (hi, lo) FP32 pairs.

    ``hi`` is the correctly rounded FP32 value and ``lo`` the rounded
    residual; ``hi + lo`` carries ~49 mantissa bits (relative error bounded
    by 2^-45), the precision double-float arithmetic can guarantee.
    """
    v = np.asarray(values, dtype=np.float64)
    hi = v.astype(np.float32)
    lo = (v - hi.astype(np.float64)).astype(np.float32)
    return hi, lo


def merge_float_pair(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Recombine a double-float pair into FP64."""
    return hi.astype(np.float64) + lo.astype(np.float64)


def double_float_matmul(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Double-float product of two pair-represented matrices.

    The compensated accumulation is modelled in FP64 (each double-float
    number is exactly representable there) and re-split on output: this is
    numerically equivalent to the TwoProd/TwoSum chain of the device kernel
    up to the final rounding, and property tests check the ~2^-45 relative
    error bound that double-float arithmetic guarantees.
    """
    a = merge_float_pair(a_hi, a_lo)
    b = merge_float_pair(b_hi, b_lo)
    return split_to_float_pair(a @ b)


@dataclasses.dataclass(frozen=True)
class EmulatedFp64GemmShader:
    name: str = "gemm_fp64_emulated"
    impl_key: str = "gpu-fp64-emulated"

    def dispatch(self, ctx: ShaderContext) -> None:
        """Run the double-float GEMM over the bound pair-plane buffers."""
        n = ctx.uint_constant(6)
        validate_gemm_grid(ctx, n)
        a_hi = ctx.array(0, np.float32, (n, n))
        a_lo = ctx.array(1, np.float32, (n, n))
        b_hi = ctx.array(2, np.float32, (n, n))
        b_lo = ctx.array(3, np.float32, (n, n))
        c_hi = ctx.array(4, np.float32, (n, n))
        c_lo = ctx.array(5, np.float32, (n, n))

        machine = ctx.device.machine
        policy = machine.numerics.effective_policy(n)
        if policy is not NumericsPolicy.MODEL_ONLY:
            if policy is NumericsPolicy.SAMPLED:
                rows = machine.numerics.sampled_row_indices(n)
                hi, lo = double_float_matmul(
                    a_hi[rows, :], a_lo[rows, :], b_hi, b_lo
                )
                c_hi[rows, :] = hi
                c_lo[rows, :] = lo
            else:
                hi, lo = double_float_matmul(a_hi, a_lo, b_hi, b_lo)
                c_hi[...] = hi
                c_lo[...] = lo

        machine.execute(gemm_dispatch_operation(machine.chip, self.impl_key, n))


register_shader(EmulatedFp64GemmShader())
