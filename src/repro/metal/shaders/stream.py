"""GPU STREAM kernels (Copy, Scale, Add, Triad) in MSL spirit.

Ports of the CUDA/HIP GPU STREAM kernels the paper adapted (section 3.1):
one thread per element, float32 arrays ``a``, ``b``, ``c`` bound at indices
0-2, the element count at constant index 0 and the Triad/Scale scalar at
constant index 1.  Timing is the kernel's dispatch from
:func:`~repro.calibration.stream.gpu_stream_operations`: memory-bound
through the calibrated GPU link efficiency for the kernel and array
footprint.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.calibration.stream import STREAM_KERNELS, gpu_stream_operations
from repro.metal.errors import DispatchError
from repro.metal.shaders import ShaderContext, register_shader
from repro.sim.policy import NumericsPolicy

__all__ = ["StreamShader", "STREAM_SHADER_NAMES"]


@dataclasses.dataclass(frozen=True)
class StreamShader:
    """One STREAM kernel as a Metal compute function."""

    kernel: str

    @property
    def name(self) -> str:
        return f"stream_{self.kernel}"

    @property
    def impl_key(self) -> str:
        return f"gpu-stream-{self.kernel}"

    def dispatch(self, ctx: ShaderContext) -> None:
        """Run one STREAM kernel pass over the bound arrays."""
        n = ctx.uint_constant(0)
        if n == 0:
            raise DispatchError("STREAM kernel needs a positive element count")
        if ctx.grid_threads_x < n:
            raise DispatchError(
                f"grid of {ctx.grid_threads_x} threads cannot cover {n} elements"
            )
        machine = ctx.device.machine

        # -- numerics (policy-gated; STREAM arrays are cheap, default FULL) --
        if machine.numerics.policy is not NumericsPolicy.MODEL_ONLY:
            a = ctx.array(0, np.float32, (n,))
            b = ctx.array(1, np.float32, (n,))
            c = ctx.array(2, np.float32, (n,))
            if self.kernel == "copy":
                c[:] = a
            elif self.kernel == "scale":
                scalar = np.float32(ctx.float_constant(1))
                b[:] = scalar * c
            elif self.kernel == "add":
                c[:] = a + b
            elif self.kernel == "triad":
                scalar = np.float32(ctx.float_constant(1))
                a[:] = b + scalar * c
            else:  # pragma: no cover - registry controls kernels
                raise DispatchError(f"unknown STREAM kernel {self.kernel}")

        # -- timing/power ---------------------------------------------------
        op = gpu_stream_operations(machine, n)[STREAM_KERNELS.index(self.kernel)]
        machine.execute(op)


STREAM_SHADER_NAMES: tuple[str, ...] = tuple(
    register_shader(StreamShader(kernel)).name for kernel in STREAM_KERNELS
)
