"""Built-in STREAM workload (Figure 1), wired as a registry plugin.

Owns the per-kind pieces that used to be switch branches: the
:class:`~repro.core.results.StreamResult` JSON codec (restoring canonical
kernel order on load), the chips x targets sweep semantics, and the CLI
rendering.  The spec class and executor body stay in
:mod:`repro.experiments` for API compatibility.

One STREAM cell is a whole protocol — the CPU OpenMP thread sweep across
four kernels, or the 20-repetition GPU dispatch loop — not a homogeneous
repetition grid, so it lowers to a
:class:`~repro.sim.vectorized.LoweredSequence`: one position per
(thread-count, repetition, kernel) dispatch, holding the operations that
:func:`~repro.calibration.stream.cpu_stream_operations` and
:func:`~repro.calibration.stream.gpu_stream_operations` build for the
benchmark classes and the Metal shaders too.  Each distinct dispatch — per
(thread-count, kernel) on the CPU, per kernel on the GPU — is one object
repeated ``ntimes``, so a CPU cell holds 32–40 distinct ops behind its
320–400 positions.  That lowering is the only definition of a cell's
timing, under every numerics profile; stream.c's closed-form validation of
the array numerics is a separate memoized check (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

import numpy as np

from repro.calibration import paper
from repro.calibration.stream import (
    STREAM_ELEMENT_BYTES,
    STREAM_KERNELS,
    cpu_stream_operations,
    gpu_stream_operations,
)
from repro.core.results import StreamKernelResult, StreamResult
from repro.errors import ConfigurationError
from repro.experiments.executor import run_stream_spec
from repro.experiments.specs import StreamSpec, SweepSpec
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy
from repro.sim.vectorized import LoweredSequence
from repro.soc.catalog import chip_memo
from repro.workloads.base import Workload, variant_grid
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
    # JSON serialization sorts mapping keys; restore the canonical kernel
    # order (copy, scale, add, triad) so re-rendered figures match live runs.
    raw = data["kernels"]
    names = [k for k in STREAM_KERNELS if k in raw]
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


#: ``(chip name, target, n_elements, ntimes) -> ops`` per chip object (see
#: :func:`~repro.soc.catalog.chip_memo`) — the op tuples are pure data
#: shared by every seed of a sweep.
_STREAM_OPS_CACHE: dict[tuple, tuple] = {}


def _cpu_sweep_ops(machine_like, n: int, ntimes: int):
    """The OMP_NUM_THREADS sweep in dispatch order: 1 to the physical core
    count, ``ntimes`` repetitions of the four kernels at each count."""
    ops: list = []
    for threads in range(1, machine_like.chip.total_cores + 1):
        ops += cpu_stream_operations(machine_like, threads, n) * ntimes
    return tuple(ops)


def _gpu_loop_ops(machine_like, n: int, ntimes: int):
    """The GPU loop in command-buffer order: ``ntimes`` passes of four."""
    return gpu_stream_operations(machine_like, n) * ntimes


#: ``(target, n_elements, settings) -> (moved, threads)``: the bytes each
#: kernel moves, in :data:`STREAM_KERNELS` order, and the thread count of
#: each sweep setting (``(None,)`` for the GPU loop's one setting).  Both
#: follow from the target, the element count and the core count alone, so
#: every chip — derived calibration chips included — shares one entry.
_STREAM_LAYOUTS: dict[tuple, tuple] = {}


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
    dispatch's achieved GB/s from its clock window and replays the CPU
    sweep's per-kernel maximum selection.  Cells that run numerics first
    pass :func:`_validate_stream_numerics`.
    """
    from repro.core.stream.cpu import DEFAULT_CPU_ELEMENTS
    from repro.core.stream.gpu import DEFAULT_GPU_ELEMENTS

    target = spec.target
    if target == "cpu":
        n = spec.n_elements or DEFAULT_CPU_ELEMENTS
        ntimes = spec.repeats or paper.STREAM_CPU_REPEATS
        build = _cpu_sweep_ops
    else:
        n = spec.n_elements or DEFAULT_GPU_ELEMENTS
        ntimes = spec.repeats or paper.STREAM_GPU_REPEATS
        build = _gpu_loop_ops
    _validate_stream_numerics(machine, target, n, ntimes)
    chip = machine.chip
    ops = chip_memo(
        _STREAM_OPS_CACHE,
        (chip.name, target, n, ntimes),
        chip,
        lambda: build(machine, n, ntimes),
    )
    settings = chip.total_cores if target == "cpu" else 1
    layout_key = (target, n, settings)
    layout = _STREAM_LAYOUTS.get(layout_key)
    if layout is None:
        # The first four positions are the four kernels; the bytes a kernel
        # moves do not depend on the thread count.
        layout = _STREAM_LAYOUTS[layout_key] = (
            np.array([op.cost.total_bytes for op in ops[:4]]),
            tuple(range(1, settings + 1)) if target == "cpu" else (None,),
        )
    moved, threads = layout
    chip_name = chip.name
    theoretical = chip.memory.bandwidth_gbs

    def assemble(starts, ends) -> StreamResult:
        # Replay the benchmark: each dispatch's GB/s, viewed as (setting,
        # repetition, kernel), then per kernel the first setting holding
        # the largest maximum — strict >, so ties keep the lower count.
        widths = ends - starts
        if not (widths > 0.0).all():
            raise ConfigurationError(
                "STREAM dispatch windows must be positive; a zero-width "
                "window has no bandwidth"
            )
        gbs = moved / widths.reshape(settings, ntimes, 4) / 1e9
        best = gbs.max(axis=1).argmax(axis=0).tolist()
        return StreamResult(
            chip_name=chip_name,
            target=target,
            n_elements=n,
            element_bytes=STREAM_ELEMENT_BYTES[target],
            kernels={
                kernel: StreamKernelResult(
                    kernel=kernel,
                    bandwidths_gbs=tuple(gbs[setting, :, k].tolist()),
                    best_threads=threads[setting],
                )
                for k, (kernel, setting) in enumerate(zip(STREAM_KERNELS, best))
            },
            theoretical_gbs=theoretical,
        )

    return LoweredSequence(
        seed=spec.seed, thermal=machine.thermal, ops=ops, assemble=assemble
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
