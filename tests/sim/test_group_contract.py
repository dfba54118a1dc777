"""The group lowering contract: groups evaluate like cells lowered alone.

The vectorized backends lower the pending cells of one (kind, chip,
numerics config, variant, repeats) group with one ``lower_group`` call and
evaluate every group of a batch in one ``evaluate_groups`` call.  Whatever
the grouping, each cell's bytes must be those of the cell lowered alone, as
a group of one, and run on the scalar engine: that is the reference the
serial backend executes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import GemmSpec, PoweredGemmSpec, Session, StreamSpec
from repro.sim.engine import EngineKind, Operation
from repro.sim.machine import Machine, machine_template
from repro.sim.roofline import OpCost
from repro.sim.vectorized import (
    LoweredGroup,
    OpColumns,
    evaluate_groups,
    run_lowered_sequence,
    single_sequence,
)
from repro.soc.power import PowerComponent
from repro.soc.thermal import ThermalModel
from repro.workloads import BatchedGemmSpec, SpmvSpec, StencilSpec
from repro.workloads.batched_gemm import BATCHED_GEMM_IMPL_KEYS
from repro.workloads.stencil import STENCIL_IMPL_KEYS
from tests.conftest import window_pairs

CHIPS = ("M1", "M4")


def _spec(kind: str, chip: str, variant: str, size: int, repeats: int, seed: int):
    if kind == "spmv":
        return SpmvSpec(chip=chip, seed=seed, target=variant, n=size, repeats=repeats)
    if kind == "stencil":
        return StencilSpec(chip=chip, seed=seed, impl_key=variant, n=size, repeats=repeats)
    if kind == "batched-gemm":
        return BatchedGemmSpec(
            chip=chip, seed=seed, impl_key=variant, n=size, batch=size, repeats=repeats
        )
    if kind == "gemm":
        return GemmSpec(chip=chip, seed=seed, impl_key=variant, n=size, repeats=repeats)
    if kind == "powered-gemm":
        return PoweredGemmSpec(
            chip=chip, seed=seed, impl_key=variant, n=size, repeats=repeats
        )
    return StreamSpec(
        chip=chip, seed=seed, target=variant, n_elements=size << 8, repeats=repeats
    )


#: Per kind: its variants and sizes (every combination is supported).
KINDS = {
    "spmv": (("cpu", "gpu"), (64, 96, 128)),
    "stencil": (STENCIL_IMPL_KEYS, (64, 96, 128)),
    "batched-gemm": (BATCHED_GEMM_IMPL_KEYS, (16, 32, 64)),
    "gemm": (("gpu-mps", "cpu-accelerate"), (64, 96, 128)),
    "powered-gemm": (("gpu-mps", "cpu-accelerate"), (64, 96, 128)),
    "stream": (("cpu", "gpu"), (64, 96, 128)),
}


@st.composite
def mixed_batches(draw):
    """1-4 blocks of cells; a block shares (kind, chip, variant) and draws
    its sizes, seeds and repeats, so groups of one and of many form, and
    one kind meets several repeat counts in one batch."""
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(KINDS)))
        variants, sizes = KINDS[kind]
        chip = draw(st.sampled_from(CHIPS))
        variant = draw(st.sampled_from(variants))
        for _ in range(draw(st.sampled_from([1, 2, 9]))):
            specs.append(
                _spec(
                    kind,
                    chip,
                    variant,
                    draw(st.sampled_from(sizes)),
                    draw(st.sampled_from([1, 2, 3])),
                    draw(st.integers(0, 3)),
                )
            )
    return draw(st.permutations(specs))


class TestBackendGroups:
    @settings(max_examples=30, deadline=None)
    @given(
        specs=mixed_batches(),
        sigma=st.sampled_from([0.0, 0.015]),
        thermal=st.booleans(),
    )
    def test_grouped_batch_equals_each_cell_on_the_scalar_engine(
        self, specs, sigma, thermal
    ):
        def session():
            return Session(
                numerics="model-only", noise_sigma=sigma, thermal_enabled=thermal
            )

        grouped = session().run_batch(specs, backend="vectorized")
        alone = [session().run(spec) for spec in specs]
        assert [e.to_json() for e in grouped] == [e.to_json() for e in alone]


#: The M1 enclosure's model, and one whose 3 W cap throttles the hot slots.
THERMALS = (machine_template("M1", True).thermal, ThermalModel(sustained_cap_w=3.0))


def columns_group(cells, *, sigma, thermal, length, pre_advance_s):
    """A repetition-grid group over ``(seed, size)`` cells, assembling each
    cell's clock windows."""
    sizes = np.array([size for _, size in cells], dtype=np.float64)
    return LoweredGroup(
        seeds=[seed for seed, _ in cells],
        thermal=thermal,
        ops=OpColumns(
            engine=EngineKind.CPU_SIMD,
            label=lambda slot: f"columns/{cells[slot][1]}",
            noise_keys=[f"columns/n={size}" for _, size in cells],
            flops=1e7 * sizes,
            bytes_read=2e5 * sizes,
            bytes_written=1e5,
            peak_flops=1e12,
            peak_bytes_per_s=1e11,
            compute_efficiency=0.5,
            memory_efficiency=0.25 + sizes / 16.0,
            overhead_s=1e-6,
            power_draws_w=[{PowerComponent.CPU: 0.5 * size} for _, size in cells],
            noise_sigma=sigma,
        ),
        length=length,
        assemble=lambda starts, ends: list(map(window_pairs, starts, ends)),
        pre_advance_s=pre_advance_s,
    )


def toy_op(i: int) -> Operation:
    """Distinct ops whose sigma is silent, the session default or their own."""
    return Operation(
        engine=EngineKind.GPU,
        label=f"rows{i}",
        cost=OpCost(flops=1e8 * (i + 1), bytes_read=1e6 * (6 - i)),
        peak_flops=1e12,
        peak_bytes_per_s=1e11,
        power_draws_w={PowerComponent.GPU: 1.5 * i},
        noise_key=f"rows/{i % 3}",
        noise_sigma=(0.0, None, 0.02)[i % 3],
    )


def rows_group(cells, *, thermal, rows, pre_advance_s):
    """A row group over ``(seed, row)`` cells."""
    return LoweredGroup(
        seeds=[seed for seed, _ in cells],
        thermal=thermal,
        ops=rows,
        length=len(rows[0]),
        assemble=lambda starts, ends: list(map(window_pairs, starts, ends)),
        slots=[row for _, row in cells],
        pre_advance_s=pre_advance_s,
    )


@st.composite
def engine_batches(draw):
    """Repetition-grid groups (silent, default or own sigma) beside row
    groups mixing silent and noisy ops, sharing clock shapes or not."""
    length = draw(st.sampled_from([1, 3, 8]))
    pre_advance_s = draw(st.sampled_from([0.0, 2.0]))
    ops = [toy_op(i) for i in range(6)]
    rows = [
        tuple(draw(st.sampled_from(ops)) for _ in range(length)),
        (ops[1],) * length,
    ]
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        thermal = draw(st.sampled_from(THERMALS))
        count = draw(st.sampled_from([1, 2, 7]))
        seeds = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        if draw(st.booleans()):
            sizes = draw(st.lists(st.integers(1, 8), min_size=count, max_size=count))
            groups.append(
                (
                    columns_group,
                    list(zip(seeds, sizes)),
                    dict(
                        sigma=draw(st.sampled_from([0.0, None, 0.02])),
                        thermal=thermal,
                        length=length,
                        pre_advance_s=pre_advance_s,
                    ),
                )
            )
        else:
            picks = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
            groups.append(
                (
                    rows_group,
                    list(zip(seeds, picks)),
                    dict(thermal=thermal, rows=rows, pre_advance_s=pre_advance_s),
                )
            )
    return groups


class TestEngineGroups:
    @settings(max_examples=40, deadline=None)
    @given(batch=engine_batches(), sigma=st.sampled_from([0.0, 0.015]))
    def test_groups_equal_cells_lowered_alone(self, batch, sigma):
        template = machine_template("M1", True)
        evaluated = evaluate_groups(
            [build(cells, **options) for build, cells, options in batch],
            default_sigma=sigma,
        )
        for (build, cells, options), results in zip(batch, evaluated):
            for cell, windows in zip(cells, results):
                alone = single_sequence(build([cell], **options))
                machine = Machine(
                    template.chip,
                    template.device,
                    envelope=template.envelope,
                    thermal=options["thermal"],
                    seed=cell[0],
                    noise_sigma=sigma,
                )
                assert windows == run_lowered_sequence(machine, alone)
