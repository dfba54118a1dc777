"""CPU STREAM: McCalpin's ``stream.c`` under the OpenMP runtime model.

"The original stream.c by John D. McCalpin is used, which utilizes OpenMP to
control the CPU threads ... every chip model was tested multiple times with
OMP_NUM_THREADS threads set from one to the number of physical cores, to get
the maximum reachable CPU bandwidth" (section 3.1).  Arrays are FP64, as in
the original.

Numerics note: bandwidth *timing* is simulated per (thread-count, repetition)
by the dispatches :func:`~repro.calibration.stream.cpu_stream_operations`
builds from the calibrated link model, while the array numerics execute
once per repetition (they do not depend on the thread count) and are
validated with stream.c's closed-form check.  MODEL_ONLY machines skip
numerics entirely.
"""

from __future__ import annotations

import numpy as np

from repro.calibration.stream import STREAM_ELEMENT_BYTES, cpu_stream_operations
from repro.core.results import StreamKernelResult, StreamResult
from repro.core.stream.kernels import KERNEL_ORDER, StreamArrays, validate_arrays
from repro.errors import ConfigurationError
from repro.omp import OpenMPEnvironment, OpenMPRuntime, parallel_chunks
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy

__all__ = ["CpuStreamBenchmark", "DEFAULT_CPU_ELEMENTS"]

#: Default array length: 2^23 FP64 elements = 67 MB per array, comfortably
#: above every chip's last-level cache (stream.c's "4x cache" rule).
DEFAULT_CPU_ELEMENTS = 1 << 23


class CpuStreamBenchmark:
    """One chip's CPU STREAM study with the OMP_NUM_THREADS sweep."""

    element_bytes = STREAM_ELEMENT_BYTES["cpu"]  # FP64, as stream.c

    def __init__(
        self,
        machine: Machine,
        n_elements: int = DEFAULT_CPU_ELEMENTS,
        ntimes: int = 10,
    ) -> None:
        if ntimes < 1:
            raise ConfigurationError("STREAM needs at least one repetition")
        self.machine = machine
        self.n_elements = int(n_elements)
        self.ntimes = int(ntimes)
        self._validated_iterations = 0

    # -- benchmark entry points -------------------------------------------
    def run(
        self, threads: int, *, run_numerics: bool | None = None
    ) -> dict[str, StreamKernelResult]:
        """``ntimes`` repetitions at a fixed OMP_NUM_THREADS.

        ``run_numerics=None`` follows the machine's policy; the sweep passes
        ``False`` for all but one thread setting since the array contents do
        not depend on the thread count.
        """
        env = OpenMPEnvironment.with_threads(threads)
        runtime = OpenMPRuntime(env)
        actual_threads = runtime.get_max_threads()
        if actual_threads > self.machine.chip.total_cores:
            actual_threads = self.machine.chip.total_cores

        if run_numerics is None:
            run_numerics = (
                self.machine.numerics.policy is not NumericsPolicy.MODEL_ONLY
            )
        arrays = (
            StreamArrays.allocate(self.n_elements, np.float64)
            if run_numerics
            else None
        )

        machine = self.machine
        ops = cpu_stream_operations(machine, actual_threads, self.n_elements)
        bandwidths: dict[str, list[float]] = {k: [] for k in KERNEL_ORDER}
        for _rep in range(self.ntimes):
            for kernel, op in zip(KERNEL_ORDER, ops):
                if arrays is not None:
                    # The OpenMP work-sharing construct: each thread's chunk
                    # of the array is processed; chunk order covers [0, n).
                    for chunk in parallel_chunks(self.n_elements, actual_threads):
                        sub = StreamArrays(
                            a=arrays.a[chunk.start : chunk.stop],
                            b=arrays.b[chunk.start : chunk.stop],
                            c=arrays.c[chunk.start : chunk.stop],
                        )
                        sub.run_kernel(kernel)
                done = machine.execute(op)
                bandwidths[kernel].append(op.cost.total_bytes / done.elapsed_s / 1e9)
        if arrays is not None:
            validate_arrays(arrays, self.ntimes)
            self._validated_iterations = self.ntimes
        return {
            kernel: StreamKernelResult(
                kernel=kernel,
                bandwidths_gbs=tuple(values),
                best_threads=actual_threads,
            )
            for kernel, values in bandwidths.items()
        }

    def run_sweep(self, max_threads: int | None = None) -> StreamResult:
        """The paper's sweep: 1..physical cores, keep the per-kernel maximum."""
        cores = max_threads or self.machine.chip.total_cores
        policy_allows = self.machine.numerics.policy is not NumericsPolicy.MODEL_ONLY
        best: dict[str, StreamKernelResult] = {}
        for threads in range(1, cores + 1):
            # Numerics once per sweep: the array values are thread-agnostic.
            numerics = policy_allows and threads == 1
            for kernel, result in self.run(threads, run_numerics=numerics).items():
                current = best.get(kernel)
                if current is None or result.max_gbs > current.max_gbs:
                    best[kernel] = result
        return StreamResult(
            chip_name=self.machine.chip.name,
            target="cpu",
            n_elements=self.n_elements,
            element_bytes=self.element_bytes,
            kernels=best,
            theoretical_gbs=self.machine.chip.memory.bandwidth_gbs,
        )
