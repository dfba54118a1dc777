"""The naive GEMM shader ("Naive algorithm as shader", Table 2).

One thread per output element, each walking the full row of A and column of
B from device memory — no threadgroup-memory staging.  Arguments follow the
open-source shaders the paper uses: A, B, C at buffer indices 0-2 and the
matrix dimension as a uint constant at index 3.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.calibration.gemm import gemm_dispatch_operation
from repro.metal.shaders import ShaderContext, register_shader
from repro.metal.shaders._gemm_common import (
    run_gemm_numerics,
    validate_gemm_grid,
)

__all__ = ["NaiveGemmShader"]


@dataclasses.dataclass(frozen=True)
class NaiveGemmShader:
    name: str = "gemm_naive"
    impl_key: str = "gpu-naive"

    def dispatch(self, ctx: ShaderContext) -> None:
        """Run the one-thread-per-element GEMM over the bound buffers."""
        n = ctx.uint_constant(3)
        validate_gemm_grid(ctx, n)
        a = ctx.array(0, np.float32, (n, n))
        b = ctx.array(1, np.float32, (n, n))
        c = ctx.array(2, np.float32, (n, n))

        run_gemm_numerics(
            ctx,
            n,
            a,
            b,
            c,
            # Each thread accumulates a_row . b_col in FP32 registers.
            tile_fn=lambda a_rows, b_cols: (a_rows @ b_cols).astype(
                np.float32, copy=False
            ),
            vector_fn=lambda fa, fb: (fa @ fb).astype(np.float32, copy=False),
        )

        machine = ctx.device.machine
        machine.execute(gemm_dispatch_operation(machine.chip, self.impl_key, n))


register_shader(NaiveGemmShader())
