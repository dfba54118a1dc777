"""Built-in STREAM workload (Figure 1), wired as a registry plugin.

Owns the per-kind pieces that used to be switch branches: the
:class:`~repro.core.results.StreamResult` JSON codec (restoring canonical
kernel order on load), the chips x targets sweep semantics, and the CLI
rendering.  The spec class and executor body stay in
:mod:`repro.experiments` for API compatibility.

One STREAM cell is a whole protocol — the CPU OpenMP thread sweep across
four kernels, or the 20-repetition GPU dispatch loop — not a homogeneous
repetition grid, so each cell of a
:class:`~repro.sim.vectorized.LoweredGroup` follows a row of one position
per (thread-count, repetition, kernel) dispatch, holding the operations that
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

from typing import Any, Iterator, Mapping, Sequence

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
from repro.sim.vectorized import LoweredGroup
from repro.soc.catalog import chip_memo
from repro.workloads.base import Workload, variant_grid
from repro.workloads.registry import register_workload

__all__ = [
    "STREAM_WORKLOAD",
    "lower_stream_group",
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


#: ``(target, settings, ntimes) -> pattern``: position ``p`` of every row of
#: that shape holds its ``pattern[p]``-th distinct dispatch (first-appearance
#: order): 4 x setting + kernel.  It follows from the sweep's structure
#: alone, so every chip of the shape shares one array.
_STREAM_PATTERNS: dict[tuple, np.ndarray] = {}

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


def lower_stream_group(machine, specs: Sequence[StreamSpec]) -> LoweredGroup:
    """Lower STREAM cells of one (chip, target, repetitions) group.

    The scalar executor (a group of one) and the vectorized backend both
    evaluate this one lowering, whatever the numerics profile.  Each cell
    follows the memoized dispatch row of its array size, which replays the
    benchmark protocol dispatch for dispatch; ``assemble`` recomputes
    every dispatch's achieved GB/s from its clock window and replays the
    CPU sweep's per-kernel maximum selection for the whole group at once.
    Cells that run numerics first pass :func:`_validate_stream_numerics`.
    """
    from repro.core.stream.cpu import DEFAULT_CPU_ELEMENTS
    from repro.core.stream.gpu import DEFAULT_GPU_ELEMENTS

    target = specs[0].target
    chip = machine.chip
    if target == "cpu":
        default_n = DEFAULT_CPU_ELEMENTS
        ntimes = specs[0].repeats or paper.STREAM_CPU_REPEATS
        build = _cpu_sweep_ops
        settings = chip.total_cores
    else:
        default_n = DEFAULT_GPU_ELEMENTS
        ntimes = specs[0].repeats or paper.STREAM_GPU_REPEATS
        build = _gpu_loop_ops
        settings = 1
    sizes = [spec.n_elements or default_n for spec in specs]
    index: dict[int, int] = {}
    rows: list = []
    moved_rows: list = []
    threads = ()
    for n in sizes:
        if n in index:
            continue
        _validate_stream_numerics(machine, target, n, ntimes)
        ops = chip_memo(
            _STREAM_OPS_CACHE,
            (chip.name, target, n, ntimes),
            chip,
            lambda: build(machine, n, ntimes),
        )
        layout_key = (target, n, settings)
        layout = _STREAM_LAYOUTS.get(layout_key)
        if layout is None:
            # The first four positions are the four kernels; the bytes a
            # kernel moves do not depend on the thread count.
            layout = _STREAM_LAYOUTS[layout_key] = (
                np.array([op.cost.total_bytes for op in ops[:4]]),
                tuple(range(1, settings + 1)) if target == "cpu" else (None,),
            )
        index[n] = len(rows)
        rows.append(ops)
        moved_rows.append(layout[0])
        threads = layout[1]
    slots = [index[n] for n in sizes]
    pattern_key = (target, settings, ntimes)
    pattern = _STREAM_PATTERNS.get(pattern_key)
    if pattern is None:
        first: dict[int, int] = {}
        pattern = _STREAM_PATTERNS[pattern_key] = np.array(
            [first.setdefault(id(op), len(first)) for op in rows[0]], dtype=np.intp
        )
    # the kernel bytes, broadcast over the (cell, setting, repetition) axes
    moved = (
        moved_rows[0]
        if len(rows) == 1
        else np.array(moved_rows)[slots][:, None, None, :]
    )
    chip_name = chip.name
    theoretical = chip.memory.bandwidth_gbs
    element_bytes = STREAM_ELEMENT_BYTES[target]

    def assemble(starts, ends) -> list[StreamResult]:
        # Replay the benchmark: each dispatch's GB/s, viewed as (cell,
        # setting, repetition, kernel), then per cell and kernel the first
        # setting holding the largest maximum — strict >, so ties keep the
        # lower count.
        widths = ends - starts
        if not (widths > 0.0).all():
            raise ConfigurationError(
                "STREAM dispatch windows must be positive; a zero-width "
                "window has no bandwidth"
            )
        gbs = moved / widths.reshape(len(sizes), settings, ntimes, 4) / 1e9
        best = gbs.max(axis=2).argmax(axis=1).tolist()
        return [
            StreamResult(
                chip_name=chip_name,
                target=target,
                n_elements=n,
                element_bytes=element_bytes,
                kernels={
                    kernel: StreamKernelResult(
                        kernel=kernel,
                        bandwidths_gbs=tuple(gbs[cell, setting, :, k].tolist()),
                        best_threads=threads[setting],
                    )
                    for k, (kernel, setting) in enumerate(
                        zip(STREAM_KERNELS, best[cell])
                    )
                },
                theoretical_gbs=theoretical,
            )
            for cell, n in enumerate(sizes)
        ]

    return LoweredGroup(
        seeds=[spec.seed for spec in specs],
        thermal=machine.thermal,
        ops=rows,
        length=len(rows[0]),
        assemble=assemble,
        slots=slots,
        layout=pattern,
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
        lower_group=lower_stream_group,
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
