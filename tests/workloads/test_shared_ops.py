"""Shared op objects: lowerings repeat one op per distinct dispatch.

A STREAM cell's repetitions of one (thread-count, kernel) dispatch are the
same :class:`~repro.sim.engine.Operation` object, and
:func:`~repro.sim.vectorized.evaluate_sequences` computes each distinct
object once.  Sharing must never change a byte: a sequence of shared
objects evaluates exactly like one with a distinct copy at every position,
and both equal the scalar machine; one ops tuple serving two thermal models
stretches under each, and GEMM and powered-GEMM cells of one shape share
one tuple whatever their warm-up.
"""

import dataclasses

import pytest

from repro.calibration import paper
from repro.experiments import GemmSpec, PoweredGemmSpec, StreamSpec
from repro.sim.machine import Machine, machine_template
from repro.sim.policy import NumericsConfig
from repro.sim.vectorized import (
    LoweredSequence,
    evaluate_sequences,
    run_lowered_sequence,
    vector_context,
)
from repro.soc.catalog import CHIP_NAMES, get_chip
from repro.soc.thermal import ThermalModel
from repro.workloads import get_workload
from tests.conftest import window_pairs


def lowered(spec) -> LoweredSequence:
    """A spec's sequence, lowered as the vectorized backend does, with
    ``assemble`` returning the raw clock windows."""
    context = vector_context(spec.chip, True, NumericsConfig.model_only())
    sequence = get_workload(spec.kind).vectorized_body(context, spec)
    return dataclasses.replace(sequence, assemble=window_pairs)


def scalar_windows(sequence: LoweredSequence, chip: str, sigma: float, thermal=None):
    template = machine_template(chip, True)
    machine = Machine(
        template.chip,
        template.device,
        envelope=template.envelope,
        thermal=thermal or template.thermal,
        seed=sequence.seed,
        noise_sigma=sigma,
    )
    return run_lowered_sequence(machine, sequence)


@pytest.mark.parametrize("chip", CHIP_NAMES)
def test_cpu_stream_repeats_one_op_per_thread_count_and_kernel(chip):
    ops = lowered(StreamSpec(chip=chip, target="cpu")).ops
    cores = get_chip(chip).total_cores
    assert len(ops) == cores * paper.STREAM_CPU_REPEATS * 4
    assert len({id(op) for op in ops}) == cores * 4


@pytest.mark.parametrize("chip", CHIP_NAMES)
def test_gpu_stream_repeats_one_op_per_kernel(chip):
    ops = lowered(StreamSpec(chip=chip, target="gpu")).ops
    assert len(ops) == paper.STREAM_GPU_REPEATS * 4
    assert len({id(op) for op in ops}) == 4


SPECS = [
    StreamSpec(chip="M1", target="cpu", n_elements=1 << 16, repeats=3, seed=4),
    StreamSpec(chip="M4", target="gpu", n_elements=1 << 18, repeats=5, seed=5),
    PoweredGemmSpec(chip="M2", impl_key="gpu-mps", n=1024, repeats=4, seed=6),
]


@pytest.mark.parametrize("sigma", [0.0, 0.015])
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.kind}-{spec.chip}")
def test_shared_objects_evaluate_like_distinct_copies(spec, sigma):
    shared = lowered(spec)
    assert len({id(op) for op in shared.ops}) < len(shared.ops)
    copies = dataclasses.replace(
        shared, ops=tuple(dataclasses.replace(op) for op in shared.ops)
    )
    assert len({id(op) for op in copies.ops}) == len(copies.ops)
    bulk_shared = evaluate_sequences([shared], default_sigma=sigma)[0]
    bulk_copies = evaluate_sequences([copies], default_sigma=sigma)[0]
    assert bulk_shared == bulk_copies
    assert bulk_shared == scalar_windows(shared, spec.chip, sigma)


@pytest.mark.parametrize("sigma", [0.0, 0.015])
def test_one_ops_tuple_stretches_under_each_sequence_thermal_model(sigma):
    base = lowered(StreamSpec(chip="M1", target="cpu", n_elements=1 << 16, repeats=2))
    hot = ThermalModel(sustained_cap_w=1.0)
    cool = ThermalModel.unlimited()
    throttled = dataclasses.replace(base, thermal=hot)
    free = dataclasses.replace(base, thermal=cool)
    assert throttled.ops is free.ops
    got = evaluate_sequences([throttled, free, throttled], default_sigma=sigma)
    assert got[0] == got[2] == scalar_windows(throttled, "M1", sigma, hot)
    assert got[1] == scalar_windows(free, "M1", sigma, cool)
    # the 1 W cap throttles every dispatch: each window is longer
    assert all(
        (t_end - t_start) > (f_end - f_start)
        for (t_start, t_end), (f_start, f_end) in zip(got[0], got[1])
    )


@pytest.mark.parametrize("sigma", [0.0, 0.015])
def test_gemm_and_powered_gemm_share_one_ops_tuple(sigma):
    # the powermetrics warm-up lives on the sequence, not on the ops, so
    # one batch can hold both kinds of cell on the same op objects
    shape = dict(chip="M3", impl_key="gpu-cutlass", n=2048, repeats=5)
    gemm = lowered(GemmSpec(seed=1, **shape))
    powered = lowered(PoweredGemmSpec(seed=2, **shape))
    assert gemm.ops is powered.ops
    assert (gemm.pre_advance_s, powered.pre_advance_s) == (
        0.0,
        paper.POWERMETRICS_WARMUP_S,
    )
    batch = evaluate_sequences([gemm, powered, gemm], default_sigma=sigma)
    assert batch[0] == batch[2] == scalar_windows(gemm, "M3", sigma)
    assert batch[1] == scalar_windows(powered, "M3", sigma)
    assert batch[1][0][0] == paper.POWERMETRICS_WARMUP_S
