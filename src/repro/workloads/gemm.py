"""Built-in GEMM workload (Figure 2), wired as a registry plugin.

The spec class and executor body predate the registry and stay in
:mod:`repro.experiments.specs` / :mod:`repro.experiments.executor` for API
compatibility; this module owns the per-kind pieces that used to be switch
branches — the result JSON codec, the sweep-axis semantics (chips x
implementations x sizes with the section-4 exclusions) and the CLI
rendering — and registers them under ``kind="gemm"``.

Timing never depends on the numbers, so every Table-2 implementation
executes exactly one
:func:`~repro.calibration.gemm.gemm_dispatch_operation` per repetition,
and :func:`lower_gemm_spec` — the one definition of a cell's timing, under
every numerics profile — repeats that same operation in a
:class:`~repro.sim.vectorized.LoweredSequence` (chrono-truncated
nanoseconds per repetition window, identical
:class:`~repro.errors.UnsupportedProblemError` for excluded cells).  The
``verified`` flag comes from a separate check that runs the real Table-2
kernel once on a scratch machine and is memoized on exactly what the
kernel reads (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.calibration import paper
from repro.calibration.gemm import gemm_dispatch_operation
from repro.core.gemm.base import GemmImplementation, GemmProblem
from repro.core.gemm.registry import get_implementation, paper_implementation_keys
from repro.core.gemm.verify import verify_result
from repro.core.results import GemmResult
from repro.errors import UnsupportedProblemError
from repro.experiments.executor import run_gemm_spec
from repro.experiments.specs import GemmSpec, SweepSpec
from repro.sim.engine import Operation
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy
from repro.sim.vectorized import LoweredSequence
from repro.soc.catalog import chip_memo
from repro.units import NS_PER_S
from repro.workloads.base import (
    Workload,
    best_elapsed_s,
    elapsed_ns_from_list,
    iter_axes,
    variant_grid,
)
from repro.workloads.registry import register_workload

__all__ = [
    "GEMM_WORKLOAD",
    "gemm_result_to_dict",
    "gemm_result_from_dict",
    "gemm_repetition_ops",
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
        "elapsed_ns": list(result.elapsed_ns),
        "verified": result.verified,
    }


def gemm_result_from_dict(data: Mapping[str, Any]) -> GemmResult:
    """Rebuild a :class:`GemmResult` from :func:`gemm_result_to_dict` output."""
    return GemmResult(
        impl_key=data["impl_key"],
        chip_name=data["chip_name"],
        n=int(data["n"]),
        flop_count=int(data["flop_count"]),
        elapsed_ns=elapsed_ns_from_list(data["elapsed_ns"]),
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


# -- lowering ----------------------------------------------------------------
#
# Each Table-2 implementation's ``execute`` issues exactly one
# ``gemm_dispatch_operation`` per repetition (the Metal paths via a command
# buffer, the CPU paths directly), and its numerics never touch the clock,
# so the whole cell reduces to ``repeats`` copies of that one operation.

#: Seed-independent repetition ops per cell shape (see
#: :func:`~repro.soc.catalog.chip_memo`); seed-ensemble grids (many seeds,
#: one shape) lower in O(1) per cell, and powered-GEMM cells of the same
#: shape share the tuple.
_GEMM_OPS_CACHE: "dict[tuple[str, str, int, int], tuple]" = {}


def gemm_repetition_ops(
    chip, impl_key: str, n: int, repeats: int
) -> "tuple[Operation, ...]":
    """``repeats`` positions of the one operation a repetition dispatches."""
    return chip_memo(
        _GEMM_OPS_CACHE,
        (chip.name, impl_key, n, repeats),
        chip,
        lambda: (gemm_dispatch_operation(chip, impl_key, n),) * repeats,
    )


#: Outcomes of :func:`_numerics_verified`, keyed on what the kernel reads.
_VERIFIED: "dict[tuple, bool]" = {}


def _numerics_verified(machine, impl: GemmImplementation, spec) -> bool:
    """Run ``impl``'s real numerics once and verify the product.

    The check takes no simulated time from the cell: it prepares and
    executes the Table-2 kernel a single time on a scratch machine of the
    same chip and numerics config, then calls
    :func:`~repro.core.gemm.verify.verify_result`, which raises
    :class:`~repro.errors.ValidationError` on a wrong product — or on any
    request to verify under MODEL_ONLY, where no numerics run.

    Only the outcome is memoized, on exactly what the kernel reads: the
    implementation, ``n``, the seed (the input matrices) and the numerics
    config (which rows are computed).  ``cpu-omp`` also partitions rows by
    the chip's core count; no other kernel reads the chip.  Exceptions are
    never cached.
    """
    key: tuple = (impl.key, spec.n, spec.seed, machine.numerics)
    if impl.key == "cpu-omp":
        key += (machine.chip.total_cores,)
    if key not in _VERIFIED:
        scratch = Machine(
            machine.chip, machine.device, numerics=machine.numerics, noise_sigma=0.0
        )
        problem = GemmProblem.generate(
            spec.n,
            seed=spec.seed,
            fill_random=machine.numerics.policy is not NumericsPolicy.MODEL_ONLY,
        )
        impl.execute(scratch, problem, impl.prepare(scratch, problem))
        _VERIFIED[key] = verify_result(
            scratch, problem, reduced_precision=(impl.key == "ane-fp16")
        )
    return _VERIFIED[key]


def lower_gemm_spec(machine, spec: GemmSpec) -> LoweredSequence:
    """Lower one Figure-2 cell to its operation sequence.

    ``machine`` is a :class:`~repro.sim.machine.Machine` or a
    :class:`~repro.sim.vectorized.VectorContext`; the scalar executor and
    the vectorized backend both evaluate this one lowering, whatever the
    numerics profile.  Unsupported cells raise the same
    :class:`UnsupportedProblemError` the Table-2 classes raise.  The cell
    verifies when ``spec.verify`` says so, else whenever numerics run
    (:func:`_numerics_verified`).
    """
    impl = get_implementation(spec.impl_key)
    if not impl.supports(machine, spec.n):
        raise UnsupportedProblemError(
            f"{impl.key} does not execute n={spec.n} on {machine.chip.name}"
        )
    want_verify = (
        spec.verify
        if spec.verify is not None
        else machine.numerics.effective_policy(spec.n)
        is not NumericsPolicy.MODEL_ONLY
    )
    verified = _numerics_verified(machine, impl, spec) if want_verify else None
    ops = gemm_repetition_ops(machine.chip, impl.key, spec.n, spec.repeats)

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
            verified=verified,
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
