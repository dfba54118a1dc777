"""The CUTLASS-style tiled GEMM shader (Table 2).

Each threadgroup stages K-tiles of A and B through threadgroup memory and
accumulates its output tile over ``ceil(n / TK)`` iterations — the structure
of the open-source "Cutlass-style" shader the paper benchmarks.  On the
M-series this shader *trails* the naive one (Figure 2: 0.15-0.34 TFLOPS vs
0.20-0.54), which the calibration reproduces; the numerics here reproduce its
accumulation order (K-tile partial sums).
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

__all__ = ["TiledGemmShader", "K_TILE"]

#: Threadgroup-memory K-tile depth (floats per staged slab row).
K_TILE = 32


def _k_tiled_product(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Partial-sum accumulation over K tiles, as the shader's inner loop."""
    k = fa.shape[1]
    acc = np.zeros((fa.shape[0], fb.shape[1]), dtype=np.float32)
    for k0 in range(0, k, K_TILE):
        k1 = min(k0 + K_TILE, k)
        acc += fa[:, k0:k1] @ fb[k0:k1, :]
    return acc


@dataclasses.dataclass(frozen=True)
class TiledGemmShader:
    name: str = "gemm_tiled"
    impl_key: str = "gpu-cutlass"

    def dispatch(self, ctx: ShaderContext) -> None:
        """Run the K-tiled (threadgroup-memory) GEMM over the bound buffers."""
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
            tile_fn=_k_tiled_product,
            vector_fn=_k_tiled_product,
        )

        machine = ctx.device.machine
        machine.execute(gemm_dispatch_operation(machine.chip, self.impl_key, n))


register_shader(TiledGemmShader())
