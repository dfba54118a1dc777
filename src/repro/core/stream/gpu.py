"""GPU STREAM: the MSL port of Copy/Scale/Add/Triad (section 3.1).

"We adopt the STREAM benchmark from a CUDA/HIP GPU version, ported the Copy,
Scale, Add, and Triad kernels with MSL, and implemented the main logic with
Objective-C++."  Arrays are FP32 (the MSL port), allocated page-aligned and
wrapped in zero-copy shared buffers; each repetition encodes one kernel
dispatch per command buffer, and the achieved bandwidth comes from the
command buffer's GPU timestamps.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.calibration.stream import STREAM_ELEMENT_BYTES
from repro.core.data import PageAlignedAllocation, aligned_alloc
from repro.core.results import StreamKernelResult, StreamResult
from repro.core.stream.kernels import (
    KERNEL_ORDER,
    StreamArrays,
    kernel_bytes_per_element,
    validate_arrays,
)
from repro.errors import ConfigurationError
from repro.metal.buffer import MTLBuffer
from repro.metal.command_buffer import MTLCommandQueue
from repro.metal.device import MTLCreateSystemDefaultDevice, MTLDevice
from repro.metal.pipeline import MTLComputePipelineState
from repro.metal.resources import MTLResourceStorageMode, MTLSize
from repro.sim.machine import Machine

__all__ = ["GpuStreamBenchmark", "DEFAULT_GPU_ELEMENTS"]

#: Default array length: 2^24 FP32 elements = 67 MB per array — large enough
#: that the footprint ramp and dispatch overhead cost well under 1 %.
DEFAULT_GPU_ELEMENTS = 1 << 24

#: Thread configuration of the MSL kernels (1-D, 256 threads per group).
_THREADS_PER_GROUP = 256


@dataclasses.dataclass
class _GpuStreamContext:
    device: MTLDevice
    queue: MTLCommandQueue
    pipelines: dict[str, MTLComputePipelineState]
    buffers: dict[str, MTLBuffer]
    allocations: dict[str, PageAlignedAllocation]
    arrays: StreamArrays


class GpuStreamBenchmark:
    """One chip's GPU STREAM study."""

    element_bytes = STREAM_ELEMENT_BYTES["gpu"]  # FP32 (the MSL port)

    def __init__(
        self,
        machine: Machine,
        n_elements: int = DEFAULT_GPU_ELEMENTS,
        ntimes: int = 20,
    ) -> None:
        if ntimes < 1:
            raise ConfigurationError("STREAM needs at least one repetition")
        self.machine = machine
        self.n_elements = int(n_elements)
        self.ntimes = int(ntimes)
        self._context: _GpuStreamContext | None = None

    # -- setup ------------------------------------------------------------
    def _setup(self) -> _GpuStreamContext:
        if self._context is not None:
            return self._context
        device = MTLCreateSystemDefaultDevice(self.machine)
        library = device.new_default_library()
        pipelines = {
            kernel: device.new_compute_pipeline_state_with_function(
                library.new_function_with_name(f"stream_{kernel}")
            )
            for kernel in KERNEL_ORDER
        }
        allocations: dict[str, PageAlignedAllocation] = {}
        views: dict[str, np.ndarray] = {}
        buffers: dict[str, MTLBuffer] = {}
        for name, initial in (("a", 1.0), ("b", 2.0), ("c", 0.0)):
            alloc = aligned_alloc(self.n_elements * self.element_bytes)
            view = alloc.view(np.float32, self.n_elements)
            view[:] = initial
            buffers[name] = device.new_buffer_with_bytes_no_copy(
                alloc.data, alloc.length, MTLResourceStorageMode.SHARED
            )
            allocations[name] = alloc
            views[name] = view
        self._context = _GpuStreamContext(
            device=device,
            queue=device.new_command_queue(),
            pipelines=pipelines,
            buffers=buffers,
            allocations=allocations,
            arrays=StreamArrays(a=views["a"], b=views["b"], c=views["c"]),
        )
        return self._context

    # -- one timed kernel dispatch ----------------------------------------
    def _execute_kernel(self, ctx: _GpuStreamContext, kernel: str) -> float:
        """Dispatch one kernel; returns achieved GB/s from GPU timestamps."""
        command_buffer = ctx.queue.command_buffer()
        encoder = command_buffer.compute_command_encoder()
        encoder.set_compute_pipeline_state(ctx.pipelines[kernel])
        encoder.set_buffer(ctx.buffers["a"], 0, 0)
        encoder.set_buffer(ctx.buffers["b"], 0, 1)
        encoder.set_buffer(ctx.buffers["c"], 0, 2)
        encoder.set_bytes(np.uint32(self.n_elements), 0)
        encoder.set_bytes(np.float32(3.0), 1)
        groups = (self.n_elements + _THREADS_PER_GROUP - 1) // _THREADS_PER_GROUP
        encoder.dispatch_threadgroups(
            MTLSize(groups), MTLSize(_THREADS_PER_GROUP)
        )
        encoder.end_encoding()
        command_buffer.commit()
        command_buffer.wait_until_completed()
        assert command_buffer.gpu_start_time is not None
        assert command_buffer.gpu_end_time is not None
        elapsed = command_buffer.gpu_end_time - command_buffer.gpu_start_time
        moved = kernel_bytes_per_element(kernel, self.element_bytes) * self.n_elements
        return moved / elapsed / 1e9

    # -- benchmark entry point ----------------------------------------------
    def run(self) -> StreamResult:
        """Twenty repetitions of the four MSL kernels (section 4)."""
        ctx = self._setup()
        bandwidths: dict[str, list[float]] = {k: [] for k in KERNEL_ORDER}
        for _rep in range(self.ntimes):
            for kernel in KERNEL_ORDER:
                bandwidths[kernel].append(self._execute_kernel(ctx, kernel))
        from repro.sim.policy import NumericsPolicy

        if self.machine.numerics.policy is not NumericsPolicy.MODEL_ONLY:
            validate_arrays(ctx.arrays, self.ntimes, rtol=1e-5)
        return StreamResult(
            chip_name=self.machine.chip.name,
            target="gpu",
            n_elements=self.n_elements,
            element_bytes=self.element_bytes,
            kernels={
                kernel: StreamKernelResult(kernel=kernel, bandwidths_gbs=tuple(vals))
                for kernel, vals in bandwidths.items()
            },
            theoretical_gbs=self.machine.chip.memory.bandwidth_gbs,
        )
