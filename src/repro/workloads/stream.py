"""Built-in STREAM workload (Figure 1), wired as a registry plugin.

Owns the per-kind pieces that used to be switch branches: the
:class:`~repro.core.results.StreamResult` JSON codec (restoring canonical
kernel order on load), the chips x targets sweep semantics, and the CLI
rendering.  The spec class and executor body stay in
:mod:`repro.experiments` for API compatibility.

One STREAM cell is a whole protocol — the CPU OpenMP thread sweep across
four kernels, or the 20-repetition GPU dispatch loop — not a homogeneous
repetition grid, so it lowers to a
:class:`~repro.sim.vectorized.LoweredSequence`: one op per (thread-count,
repetition, kernel) dispatch, with the benchmark classes' exact labels,
costs, calibrated efficiencies and noise keys (the GPU dispatches carry no
explicit key, so the lowering spells out the machine's ``chip/label``
fallback key).  That lowering is the only definition
of a cell's timing, under every numerics profile; stream.c's closed-form
validation of the array numerics is a separate memoized check
(DESIGN.md §7).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.calibration import paper
from repro.calibration.stream import (
    STREAM_NOISE_SIGMA,
    cpu_stream_bandwidth_gbs,
    gpu_stream_bandwidth_gbs,
    stream_power_draws,
)
from repro.core.results import StreamKernelResult, StreamResult
from repro.experiments.executor import run_stream_spec
from repro.experiments.specs import StreamSpec, SweepSpec
from repro.sim.engine import EngineKind
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy
from repro.sim.roofline import OpCost
from repro.sim.vectorized import LoweredOp, LoweredSequence
from repro.soc.power import PowerComponent
from repro.workloads.base import Workload, chip_memo, variant_grid
from repro.workloads.registry import register_workload

__all__ = [
    "STREAM_WORKLOAD",
    "lower_stream_spec",
    "stream_result_to_dict",
    "stream_result_from_dict",
]


def stream_result_to_dict(result: StreamResult) -> dict[str, Any]:
    """Serialize a :class:`StreamResult` to plain data (raw bandwidths only)."""
    return {
        "type": "stream",
        "chip_name": result.chip_name,
        "target": result.target,
        "n_elements": result.n_elements,
        "element_bytes": result.element_bytes,
        "theoretical_gbs": result.theoretical_gbs,
        "kernels": {
            name: {
                "kernel": k.kernel,
                "bandwidths_gbs": list(k.bandwidths_gbs),
                "best_threads": k.best_threads,
            }
            for name, k in result.kernels.items()
        },
    }


def stream_result_from_dict(data: Mapping[str, Any]) -> StreamResult:
    """Rebuild a :class:`StreamResult` from :func:`stream_result_to_dict` output."""
    from repro.core.stream.kernels import KERNEL_ORDER

    # JSON serialization sorts mapping keys; restore the canonical kernel
    # order (copy, scale, add, triad) so re-rendered figures match live runs.
    raw = data["kernels"]
    names = [k for k in KERNEL_ORDER if k in raw]
    names += [k for k in raw if k not in names]
    return StreamResult(
        chip_name=data["chip_name"],
        target=data["target"],
        n_elements=int(data["n_elements"]),
        element_bytes=int(data["element_bytes"]),
        theoretical_gbs=float(data["theoretical_gbs"]),
        kernels={
            name: StreamKernelResult(
                kernel=raw[name]["kernel"],
                bandwidths_gbs=tuple(
                    float(b) for b in raw[name]["bandwidths_gbs"]
                ),
                best_threads=raw[name].get("best_threads"),
            )
            for name in names
        },
    )


#: ``(chip name, target, n_elements, ntimes) -> (ops, labels)`` per chip
#: object (see :func:`~repro.workloads.base.chip_memo`) — the lowered op
#: tuples are pure data shared by every seed of a sweep; ``labels`` pairs
#: each op with its ``(threads, kernel)`` identity for the assembler.
_STREAM_OPS_CACHE: dict[tuple, tuple] = {}


def _lowered_cpu_stream_ops(chip, machine_like, n: int, ntimes: int):
    """One op per (thread-count, repetition, kernel) of the CPU sweep.

    Mirrors ``CpuStreamBenchmark._execute_kernel`` exactly: the sweep runs
    ``OMP_NUM_THREADS`` from 1 to the physical core count, and every dispatch
    carries an explicit content-addressed noise key per (kernel, threads),
    whose repetitions draw successive counters.
    """
    from repro.core.stream.kernels import (
        KERNEL_ORDER,
        kernel_bytes_per_element,
        kernel_flops_per_element,
    )

    cores = chip.total_cores
    peak_flops = machine_like.peak_flops(EngineKind.CPU_SIMD)
    peak_bytes = machine_like.memory_bandwidth_bytes_per_s()
    theoretical = chip.memory.bandwidth_gbs
    base_draws = stream_power_draws(chip, "cpu")
    ops: list[LoweredOp] = []
    labels: list[tuple[int, str]] = []
    for threads in range(1, cores + 1):
        ramp = 0.35 + 0.65 * min(threads, cores) / cores
        draws = {
            comp: watts * ramp if comp is PowerComponent.CPU else watts
            for comp, watts in base_draws.items()
        }
        for _rep in range(ntimes):
            for kernel in KERNEL_ORDER:
                bytes_moved = float(kernel_bytes_per_element(kernel, 8) * n)
                eff_gbs = cpu_stream_bandwidth_gbs(chip, kernel, threads)
                ops.append(
                    LoweredOp(
                        engine=EngineKind.CPU_SIMD,
                        label=f"stream/cpu/{kernel}/T={threads}",
                        cost=OpCost(
                            flops=float(kernel_flops_per_element(kernel) * n),
                            bytes_read=bytes_moved / 2.0,
                            bytes_written=bytes_moved / 2.0,
                        ),
                        peak_flops=peak_flops,
                        peak_bytes_per_s=peak_bytes,
                        compute_efficiency=1.0,
                        memory_efficiency=min(1.0, eff_gbs / theoretical),
                        overhead_s=5e-6,
                        power_draws_w=draws,
                        noise_key=f"stream/cpu/{chip.name}/{kernel}/T={threads}",
                        noise_sigma=STREAM_NOISE_SIGMA,
                    )
                )
                labels.append((threads, kernel))
    return tuple(ops), tuple(labels)


def _lowered_gpu_stream_ops(chip, machine_like, n: int, ntimes: int):
    """One op per (repetition, kernel) GPU dispatch, in command-buffer order.

    Mirrors ``StreamShader.dispatch`` exactly — including the ``chip/label``
    noise key the scalar engine synthesizes for its keyless dispatches, whose
    repetitions draw successive counters.
    """
    from repro.core.stream.kernels import KERNEL_ORDER
    from repro.metal.shaders.stream import stream_moved_bytes

    peak_flops = machine_like.peak_flops(EngineKind.GPU)
    peak_bytes = machine_like.memory_bandwidth_bytes_per_s()
    theoretical = chip.memory.bandwidth_gbs
    draws = stream_power_draws(chip, "gpu")
    ops: list[LoweredOp] = []
    labels: list[tuple[int, str]] = []
    for _rep in range(ntimes):
        for kernel in KERNEL_ORDER:
            eff_gbs = gpu_stream_bandwidth_gbs(chip, kernel, 4 * n)
            moved = float(stream_moved_bytes(kernel, n))
            reads, writes = {"copy": (1, 1), "scale": (1, 1),
                             "add": (2, 1), "triad": (2, 1)}[kernel]
            flops = (
                float(n) if kernel in ("scale", "add")
                else 2.0 * n if kernel == "triad" else 0.0
            )
            ops.append(
                LoweredOp(
                    engine=EngineKind.GPU,
                    label=f"stream/gpu/{kernel}/n={n}",
                    cost=OpCost(
                        flops=flops,
                        bytes_read=moved * reads / (reads + writes),
                        bytes_written=moved * writes / (reads + writes),
                    ),
                    peak_flops=peak_flops,
                    peak_bytes_per_s=peak_bytes,
                    compute_efficiency=1.0,
                    memory_efficiency=min(1.0, eff_gbs / theoretical),
                    overhead_s=10e-6,
                    power_draws_w=draws,
                    noise_key=f"{chip.name}/stream/gpu/{kernel}/n={n}",
                    noise_sigma=STREAM_NOISE_SIGMA,
                )
            )
            labels.append((0, kernel))
    return tuple(ops), tuple(labels)


#: (target, n_elements, ntimes, numerics config) of every validated cell.
_VALIDATED: "set[tuple]" = set()


def _validate_stream_numerics(machine, target: str, n: int, ntimes: int) -> None:
    """Run stream.c's array numerics and closed-form check once per shape.

    The benchmark classes do the work on a scratch machine of the cell's
    chip, so the check takes no simulated time from the cell; it raises
    :class:`~repro.errors.ValidationError` on a wrong result.  The array
    values depend only on the target, the element count, the repetition
    count and the numerics config, which is the memo key.  MODEL_ONLY runs
    no numerics and validates nothing.
    """
    from repro.core.stream.cpu import CpuStreamBenchmark
    from repro.core.stream.gpu import GpuStreamBenchmark

    numerics = machine.numerics
    key = (target, n, ntimes, numerics)
    if numerics.policy is NumericsPolicy.MODEL_ONLY or key in _VALIDATED:
        return
    scratch = Machine(
        machine.chip, machine.device, numerics=numerics, noise_sigma=0.0
    )
    if target == "cpu":
        # The sweep runs numerics at one thread only: the arrays do not
        # depend on the thread count.
        CpuStreamBenchmark(scratch, n_elements=n, ntimes=ntimes).run(
            1, run_numerics=True
        )
    else:
        GpuStreamBenchmark(scratch, n_elements=n, ntimes=ntimes).run()
    _VALIDATED.add(key)


def lower_stream_spec(machine, spec: StreamSpec) -> LoweredSequence:
    """Lower one STREAM cell to its dispatch sequence.

    The scalar executor and the vectorized backend both evaluate this one
    lowering, whatever the numerics profile.  The op sequence replays the
    benchmark protocol dispatch for dispatch; ``assemble`` recomputes each
    dispatch's achieved GB/s from its clock window and replays the sweep's
    per-kernel maximum selection.  Cells that run numerics first pass
    :func:`_validate_stream_numerics`.
    """
    from repro.core.stream.cpu import DEFAULT_CPU_ELEMENTS
    from repro.core.stream.gpu import DEFAULT_GPU_ELEMENTS
    from repro.core.stream.kernels import (
        KERNEL_ORDER,
        kernel_bytes_per_element,
    )
    from repro.metal.shaders.stream import stream_moved_bytes

    chip = machine.chip
    if spec.target == "cpu":
        n = spec.n_elements or DEFAULT_CPU_ELEMENTS
        ntimes = spec.repeats or paper.STREAM_CPU_REPEATS
        _validate_stream_numerics(machine, "cpu", n, ntimes)
        ops, labels = chip_memo(
            _STREAM_OPS_CACHE,
            (chip.name, "cpu", n, ntimes),
            chip,
            lambda: _lowered_cpu_stream_ops(chip, machine, n, ntimes),
        )
        chip_name = chip.name
        theoretical = chip.memory.bandwidth_gbs
        moved_by_kernel = {
            kernel: float(kernel_bytes_per_element(kernel, 8) * n)
            for kernel in KERNEL_ORDER
        }

        def assemble_cpu(windows) -> StreamResult:
            # Replay run_sweep: group the flat dispatch stream back into
            # per-(threads, kernel) repetition tuples, then keep the
            # per-kernel maximum (strict >, ties keep the lower count).
            per_setting: dict[tuple[int, str], list[float]] = {}
            for (threads, kernel), (start, end) in zip(labels, windows):
                per_setting.setdefault((threads, kernel), []).append(
                    moved_by_kernel[kernel] / (end - start) / 1e9
                )
            best: dict[str, StreamKernelResult] = {}
            for (threads, kernel), values in per_setting.items():
                result = StreamKernelResult(
                    kernel=kernel,
                    bandwidths_gbs=tuple(values),
                    best_threads=threads,
                )
                current = best.get(kernel)
                if current is None or result.max_gbs > current.max_gbs:
                    best[kernel] = result
            return StreamResult(
                chip_name=chip_name,
                target="cpu",
                n_elements=n,
                element_bytes=8,
                kernels=best,
                theoretical_gbs=theoretical,
            )

        return LoweredSequence(
            seed=spec.seed,
            thermal=machine.thermal,
            ops=ops,
            assemble=assemble_cpu,
        )

    n = spec.n_elements or DEFAULT_GPU_ELEMENTS
    ntimes = spec.repeats or paper.STREAM_GPU_REPEATS
    _validate_stream_numerics(machine, "gpu", n, ntimes)
    ops, labels = chip_memo(
        _STREAM_OPS_CACHE,
        (chip.name, "gpu", n, ntimes),
        chip,
        lambda: _lowered_gpu_stream_ops(chip, machine, n, ntimes),
    )
    chip_name = chip.name
    theoretical = chip.memory.bandwidth_gbs
    moved_by_kernel = {
        kernel: float(stream_moved_bytes(kernel, n)) for kernel in KERNEL_ORDER
    }

    def assemble_gpu(windows) -> StreamResult:
        bandwidths: dict[str, list[float]] = {k: [] for k in KERNEL_ORDER}
        for (_threads, kernel), (start, end) in zip(labels, windows):
            bandwidths[kernel].append(
                moved_by_kernel[kernel] / (end - start) / 1e9
            )
        return StreamResult(
            chip_name=chip_name,
            target="gpu",
            n_elements=n,
            element_bytes=4,
            kernels={
                kernel: StreamKernelResult(
                    kernel=kernel, bandwidths_gbs=tuple(values)
                )
                for kernel, values in bandwidths.items()
            },
            theoretical_gbs=theoretical,
        )

    return LoweredSequence(
        seed=spec.seed,
        thermal=machine.thermal,
        ops=ops,
        assemble=assemble_gpu,
    )


def _sweep_cells(sweep: SweepSpec) -> Iterator[StreamSpec]:
    # The listed implementation keys ARE the targets; honour --impls too.
    for chip in sweep.chips or paper.CHIPS:
        for target in sweep.impl_keys or sweep.targets:
            yield StreamSpec(
                chip=chip,
                seed=sweep.seed,
                numerics=sweep.numerics,
                target=target,
                n_elements=sweep.n_elements,
                repeats=sweep.repeats,
            )


def _sample_spec() -> StreamSpec:
    return StreamSpec(chip="M1", target="gpu", n_elements=1 << 16, repeats=2)


def _sample_variants(seed: int, count: int) -> tuple[StreamSpec, ...]:
    return variant_grid(
        lambda rng: StreamSpec(
            chip=rng.choice(paper.CHIPS),
            seed=rng.randrange(1 << 16),
            numerics=rng.choice((None, "full", "sampled", "model-only")),
            target=rng.choice(("cpu", "gpu")),
            n_elements=rng.choice((None, 1 << 14, 1 << 20, 1 << 26)),
            repeats=rng.choice((None, 1, 5, 20)),
        ),
        seed,
        count,
    )


#: The registered STREAM workload (Figure-1 bandwidth study).
STREAM_WORKLOAD: Workload = register_workload(
    Workload(
        kind="stream",
        display_name="STREAM (Figure 1)",
        description="McCalpin bandwidth kernels on the CPU and GPU targets",
        spec_cls=StreamSpec,
        result_cls=StreamResult,
        execute=lambda machine, spec: run_stream_spec(machine, spec),
        result_to_dict=stream_result_to_dict,
        result_from_dict=stream_result_from_dict,
        sweep_cells=_sweep_cells,
        sample_spec=_sample_spec,
        cell_label=lambda spec: f"{spec.chip} {spec.target}",
        summary_line=lambda spec, result: (
            f"{spec.chip:4s} stream/{spec.target}: "
            f"{result.max_gbs:8.1f} GB/s "
            f"({result.fraction_of_peak:.0%} of peak)"
        ),
        impl_keys=("cpu", "gpu"),
        sample_variants=_sample_variants,
        vectorized_body=lower_stream_spec,
        metrics={
            "gbs": lambda spec, r: float(r.max_gbs),
            "fraction_of_peak": lambda spec, r: float(r.fraction_of_peak),
            # Per-kernel bar heights as a mapping — the Figure-1 series.
            "kernel_gbs": lambda spec, r: {
                k: float(kr.max_gbs) for k, kr in r.kernels.items()
            },
        },
    )
)
