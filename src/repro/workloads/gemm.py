"""Built-in GEMM workload (Figure 2), wired as a registry plugin.

The spec class and executor body predate the registry and stay in
:mod:`repro.experiments.specs` / :mod:`repro.experiments.executor` for API
compatibility; this module owns the per-kind pieces that used to be switch
branches — the result JSON codec, the sweep-axis semantics (chips x
implementations x sizes with the section-4 exclusions) and the CLI
rendering — and registers them under ``kind="gemm"``.

GEMM's executor runs the *real* Table-2 implementation objects (Metal
command buffers, Accelerate calls, verification against reference
numerics), so it cannot be lowered in general — but under the
``model-only`` numerics policy every implementation reduces to exactly one
:func:`~repro.calibration.gemm.build_gemm_operation` per repetition on a
fresh machine, and :func:`lower_gemm_spec` replays that protocol as a
:class:`~repro.sim.vectorized.LoweredSequence` (chrono-truncated
nanoseconds per repetition window, identical
:class:`~repro.errors.UnsupportedProblemError` for excluded cells).  Cells
that run numerics or verify (``FULL``/``SAMPLED`` policy, or an explicit
``verify=True``) return ``None`` from the lowering and fall back to the
scalar engine per cell inside a ``vectorized``/``sharded`` batch
(DESIGN.md §7).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.calibration import paper
from repro.calibration.gemm import build_gemm_operation
from repro.core.gemm.registry import get_implementation, paper_implementation_keys
from repro.core.results import GemmResult
from repro.errors import UnsupportedProblemError
from repro.experiments.executor import run_gemm_spec
from repro.experiments.specs import GemmSpec, SweepSpec
from repro.sim.engine import Operation
from repro.sim.policy import NumericsPolicy
from repro.sim.vectorized import LoweredOp, LoweredSequence
from repro.units import NS_PER_S
from repro.workloads.base import (
    Workload,
    best_elapsed_s,
    iter_axes,
    repetitions_from_dicts,
    repetitions_to_dicts,
    variant_grid,
)
from repro.workloads.registry import register_workload

__all__ = [
    "GEMM_WORKLOAD",
    "gemm_result_to_dict",
    "gemm_result_from_dict",
    "lower_gemm_spec",
]


def gemm_result_to_dict(result: GemmResult) -> dict[str, Any]:
    """Serialize a :class:`GemmResult` to plain data (raw fields only)."""
    return {
        "type": "gemm",
        "impl_key": result.impl_key,
        "chip_name": result.chip_name,
        "n": result.n,
        "flop_count": result.flop_count,
        "repetitions": repetitions_to_dicts(result.elapsed_ns),
        "verified": result.verified,
    }


def gemm_result_from_dict(data: Mapping[str, Any]) -> GemmResult:
    """Rebuild a :class:`GemmResult` from :func:`gemm_result_to_dict` output."""
    return GemmResult(
        impl_key=data["impl_key"],
        chip_name=data["chip_name"],
        n=int(data["n"]),
        flop_count=int(data["flop_count"]),
        elapsed_ns=repetitions_from_dicts(data["repetitions"]),
        verified=data.get("verified"),
    )


def cell_is_supported(chip: str, impl_key: str, n: int) -> bool:
    """Section-4 exclusion check, tolerant of off-catalog chips."""
    from repro.calibration.gemm import gemm_calibration
    from repro.soc.catalog import get_chip

    try:
        spec = get_chip(chip)
    except Exception:
        return True  # off-catalog chips are resolved at execution time
    try:
        return gemm_calibration(spec, impl_key).supports(n)
    except Exception:
        return True


# -- model-only lowering ----------------------------------------------------
#
# Each Table-2 implementation's ``execute`` issues exactly one calibrated
# operation per repetition (the Metal paths via a command buffer, the CPU
# paths directly); under MODEL_ONLY numerics nothing else touches the
# machine, so the whole cell reduces to ``repeats`` copies of that one
# operation on a fresh clock.  The table below mirrors each implementation's
# ``build_gemm_operation`` call site — label and element size included —
# so the lowered sequence hashes the very same noise keys and advances the
# very same roofline durations the scalar executor would.


def _scalar_gemm_operation(chip, impl_key: str, n: int) -> Operation | None:
    """The single operation one repetition of ``impl_key`` executes.

    Returns ``None`` for implementation keys outside the Table-2 catalog
    (runtime-registered extensions build their operations in code this
    module cannot see), which routes the cell to the scalar fallback.
    """
    if impl_key in ("cpu-single", "cpu-omp", "cpu-accelerate"):
        return build_gemm_operation(chip, impl_key, n)
    if impl_key == "ane-fp16":
        return build_gemm_operation(chip, impl_key, n, element_bytes=2)
    if impl_key == "gpu-naive":
        return build_gemm_operation(
            chip, impl_key, n, label=f"shader/gemm_naive/n={n}"
        )
    if impl_key == "gpu-cutlass":
        return build_gemm_operation(
            chip, impl_key, n, label=f"shader/gemm_tiled/n={n}"
        )
    if impl_key == "gpu-fp64-emulated":
        return build_gemm_operation(
            chip,
            impl_key,
            n,
            label=f"shader/gemm_fp64_emulated/n={n}",
            element_bytes=8,
        )
    if impl_key == "gpu-mps":
        # MPS calibrates on the geometric scale of the (m, n, k) product;
        # spec-driven cells are square, so m = n = k = spec.n.
        n_equiv = int(round((n * n * n) ** (1.0 / 3.0)))
        return build_gemm_operation(
            chip, impl_key, max(1, n_equiv), label=f"mps/sgemm/{n}x{n}x{n}"
        )
    return None


#: Seed-independent repetition ops per cell shape.  Sound because the
#: lowering backends reject custom machine factories, so a chip name always
#: resolves to the one catalog ChipSpec; seed-ensemble grids (many seeds,
#: one shape) lower in O(1) per cell.
_GEMM_OPS_CACHE: "dict[tuple[str, str, int, int], tuple[LoweredOp, ...] | None]" = {}


def _lowered_gemm_ops(
    chip, impl_key: str, n: int, repeats: int
) -> "tuple[LoweredOp, ...] | None":
    key = (chip.name, impl_key, n, repeats)
    try:
        return _GEMM_OPS_CACHE[key]
    except KeyError:
        pass
    operation = _scalar_gemm_operation(chip, impl_key, n)
    ops = (
        None
        if operation is None
        else (LoweredOp.from_operation(operation),) * repeats
    )
    _GEMM_OPS_CACHE[key] = ops
    return ops


def lower_gemm_spec(machine, spec: GemmSpec) -> "LoweredSequence | None":
    """Lower one Figure-2 cell to its model-only operation sequence.

    ``machine`` is a :class:`~repro.sim.machine.Machine` or a
    :class:`~repro.sim.vectorized.VectorContext`.  Returns ``None`` — the
    scalar-fallback signal — whenever the cell's protocol needs real
    machinery: numerics or verification on actual arrays (any policy but
    MODEL_ONLY, or an explicit ``verify=True``) or an extension
    implementation outside the Table-2 catalog.  Unsupported cells raise
    the same :class:`UnsupportedProblemError` the scalar executor raises.
    """
    if machine.numerics.policy is not NumericsPolicy.MODEL_ONLY or spec.verify:
        return None
    impl = get_implementation(spec.impl_key)
    if not impl.supports(machine, spec.n):
        raise UnsupportedProblemError(
            f"{impl.key} does not execute n={spec.n} on {machine.chip.name}"
        )
    ops = _lowered_gemm_ops(machine.chip, impl.key, spec.n, spec.repeats)
    if ops is None:
        return None

    impl_key = impl.key
    chip_name = machine.chip.name
    n = spec.n
    flop_count = paper.gemm_flop_count(spec.n)

    def assemble(windows: "tuple[tuple[float, float], ...]") -> GemmResult:
        # measure_ns brackets each repetition with int(now * NS_PER_S)
        # reads of the cumulative clock — truncation, not rounding.
        return GemmResult(
            impl_key=impl_key,
            chip_name=chip_name,
            n=n,
            flop_count=flop_count,
            elapsed_ns=tuple(
                int(end * NS_PER_S) - int(start * NS_PER_S)
                for start, end in windows
            ),
            verified=None,
        )

    return LoweredSequence(
        seed=spec.seed, thermal=machine.thermal, ops=ops, assemble=assemble
    )


def _sweep_cells(sweep: SweepSpec) -> Iterator[GemmSpec]:
    repeats = sweep.repeats if sweep.repeats is not None else paper.GEMM_REPEATS
    return iter_axes(
        chips=sweep.chips or paper.CHIPS,
        variants=sweep.impl_keys or paper_implementation_keys(),
        sizes=sweep.sizes or paper.GEMM_SIZES,
        make_spec=lambda chip, impl_key, n: GemmSpec(
            chip=chip,
            seed=sweep.seed,
            numerics=sweep.numerics,
            impl_key=impl_key,
            n=n,
            repeats=repeats,
        ),
        cell_filter=cell_is_supported if sweep.skip_unsupported else None,
    )


def _sample_spec() -> GemmSpec:
    return GemmSpec(chip="M1", impl_key="gpu-mps", n=256, repeats=2)


def _sample_variants(seed: int, count: int) -> tuple[GemmSpec, ...]:
    return variant_grid(
        lambda rng: GemmSpec(
            chip=rng.choice(paper.CHIPS),
            seed=rng.randrange(1 << 16),
            numerics=rng.choice((None, "full", "sampled", "model-only")),
            impl_key=rng.choice(paper_implementation_keys()),
            n=rng.choice(paper.GEMM_SIZES),
            repeats=rng.randint(1, paper.GEMM_REPEATS),
            verify=rng.choice((None, True, False)),
        ),
        seed,
        count,
    )


#: The registered GEMM workload (Figure-2 timing study).
GEMM_WORKLOAD: Workload = register_workload(
    Workload(
        kind="gemm",
        display_name="GEMM (Figure 2)",
        description="dense n x n matrix multiply, best GFLOPS of 5 repetitions",
        spec_cls=GemmSpec,
        result_cls=GemmResult,
        execute=lambda machine, spec: run_gemm_spec(machine, spec),
        result_to_dict=gemm_result_to_dict,
        result_from_dict=gemm_result_from_dict,
        sweep_cells=_sweep_cells,
        sample_spec=_sample_spec,
        cell_label=lambda spec: f"{spec.chip} {spec.impl_key} n={spec.n}",
        summary_line=lambda spec, result: (
            f"{spec.chip:4s} {spec.impl_key:16s} n={spec.n:<6d} "
            f"{result.best_gflops:10.1f} GFLOPS"
        ),
        impl_keys=paper_implementation_keys(),
        sample_variants=_sample_variants,
        vectorized_body=lower_gemm_spec,
        metrics={
            "gflops": lambda spec, r: r.best_gflops,
            "mean_gflops": lambda spec, r: r.mean_gflops,
            "elapsed_s": lambda spec, r: best_elapsed_s(r),
        },
    )
)
