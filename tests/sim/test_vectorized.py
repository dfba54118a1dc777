"""The vectorized evaluation engine, at the simulator level.

Backend-level byte-identity lives in
``tests/experiments/test_vectorized_backend.py``; here the engine itself is
pinned down: lowered sequences evaluate exactly like the scalar machine, the
shared chip templates really are shared, and malformed lowerings fail with
the scalar engine's error messages.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.engine import EngineKind, Operation
from repro.sim.machine import Machine, machine_template
from repro.sim.noise import lognormal_factors, noise_entropies, resolve_sigma
from repro.sim.policy import NumericsConfig
from repro.sim.roofline import OpCost, roofline_time
from repro.sim.vectorized import (
    LoweredSequence,
    evaluate_sequences,
    run_lowered_sequence,
    vector_context,
)
from repro.soc.power import PowerComponent
from repro.soc.thermal import ThermalModel
from repro.workloads import get_workload
from repro.workloads.base import rounded_elapsed_ns
from tests.conftest import window_pairs


def lowered_sample_cells():
    """One lowered repetition grid per fast-path workload, on context machines."""
    cells = []
    for kind in ("spmv", "stencil", "batched-gemm"):
        workload = get_workload(kind)
        spec = workload.sample_spec()
        context = vector_context(spec.chip, True, NumericsConfig.model_only())
        cells.append(workload.vectorized_body(context, spec))
    return cells


class TestEngineEquivalence:
    def test_evaluate_matches_scalar_machine(self):
        cells = lowered_sample_cells()
        bulk = evaluate_sequences(cells, default_sigma=0.015)
        for cell, result in zip(cells, bulk):
            machine = Machine.for_chip(
                chip_name(cell),
                seed=cell.seed,
                numerics=NumericsConfig.model_only(),
            )
            assert result == run_lowered_sequence(machine, cell)

    def test_single_cell_batch_equals_many_cell_batch(self):
        """Batch shape must not leak into results."""
        cells = lowered_sample_cells()
        together = evaluate_sequences(cells, default_sigma=0.015)
        alone = [
            evaluate_sequences([cell], default_sigma=0.015)[0] for cell in cells
        ]
        assert together == alone

    def test_ragged_repeat_counts(self):
        """Cells with different repetition counts share a batch without
        cross-talk."""
        workload = get_workload("spmv")
        context = vector_context("M1", True, NumericsConfig.model_only())
        specs = [
            workload.sample_spec(),
            type(workload.sample_spec())(chip="M1", target="gpu", n=4096, repeats=7),
        ]
        cells = [workload.vectorized_body(context, s) for s in specs]
        together = evaluate_sequences(cells, default_sigma=0.015)
        alone = [
            evaluate_sequences([cell], default_sigma=0.015)[0] for cell in cells
        ]
        assert together == alone

    def test_zero_sigma_disables_noise(self):
        cells = lowered_sample_cells()
        a = evaluate_sequences(cells, default_sigma=0.0)
        machines = [
            Machine.for_chip(
                chip_name(cell),
                seed=cell.seed,
                noise_sigma=0.0,
                numerics=NumericsConfig.model_only(),
            )
            for cell in cells
        ]
        b = [run_lowered_sequence(m, c) for m, c in zip(machines, cells)]
        assert a == b

    def test_repetition_grids_repeat_one_op_object(self):
        for cell in lowered_sample_cells():
            assert len({id(op) for op in cell.ops}) == 1
            assert len(cell.ops) == 2  # the sample specs' repeats


def chip_name(cell: LoweredSequence) -> str:
    """Recover the chip a lowered cell was built for (label-addressed keys)."""
    # noise keys embed the chip name: "<kind>/<chip>/..."
    return cell.ops[0].noise_key.split("/")[1]


class TestTemplatesAndContexts:
    def test_machine_template_cached(self):
        assert machine_template("M1", True) is machine_template("M1", True)
        assert machine_template("M1", True) is not machine_template("M1", False)

    def test_for_chip_machines_share_template_objects(self):
        a, b = Machine.for_chip("M2"), Machine.for_chip("M2")
        assert a.chip is b.chip
        assert a.thermal is b.thermal
        assert a.envelope is b.envelope
        # mutable measurement state stays per machine
        assert a.clock is not b.clock
        assert a.recorder is not b.recorder

    def test_vector_context_matches_machine_views(self):
        context = vector_context("M4", True, NumericsConfig.model_only())
        machine = Machine.for_chip("M4")
        assert context.chip is machine.chip
        assert context.thermal == machine.thermal
        for engine in EngineKind:
            assert context.peak_flops(engine) == machine.peak_flops(engine)
        assert (
            context.memory_bandwidth_bytes_per_s()
            == machine.memory_bandwidth_bytes_per_s()
        )

    def test_vector_context_cached(self):
        numerics = NumericsConfig.model_only()
        assert vector_context("M1", True, numerics) is vector_context(
            "M1", True, numerics
        )


def toy_sequence(*ops: Operation, **overrides) -> LoweredSequence:
    defaults = dict(
        seed=0,
        thermal=machine_template("M1", True).thermal,
        ops=ops,
        assemble=window_pairs,
    )
    defaults.update(overrides)
    return LoweredSequence(**defaults)


def toy_op(**overrides) -> Operation:
    defaults = dict(
        engine=EngineKind.GPU,
        label="toy",
        cost=OpCost(flops=1e9, bytes_read=1e6),
        peak_flops=1e12,
        peak_bytes_per_s=1e11,
        noise_key="toy",
        noise_sigma=0.01,
    )
    defaults.update(overrides)
    return Operation(**defaults)


def toy_grid(repeats: int = 3, **overrides) -> LoweredSequence:
    """A repetition grid of one toy op, ``(op,) * repeats``."""
    return toy_sequence(*(toy_op(**overrides),) * repeats)


class TestValidationParity:
    """Malformed ops fail in bulk with the scalar engine's messages,
    whether a sequence repeats one op or orders distinct ones."""

    def test_empty_batch(self):
        assert evaluate_sequences([], default_sigma=0.015) == []

    def test_label_required(self):
        with pytest.raises(ConfigurationError, match="label"):
            toy_op(label="")

    def test_at_least_one_repetition(self):
        with pytest.raises(ConfigurationError, match="at least one operation"):
            toy_sequence()

    def test_empty_noise_key_rejected(self):
        """An empty key would hit the scalar engine's chip/label fallback
        while the vectorized engine hashed "" — reject, never diverge."""
        with pytest.raises(ConfigurationError, match="explicit noise keys"):
            toy_sequence(toy_op(noise_key="ok"), toy_op(noise_key=""))
        with pytest.raises(ConfigurationError, match="explicit noise keys"):
            toy_grid(noise_key="")

    def test_negative_power_draw_rejected(self):
        with pytest.raises(ConfigurationError, match="negative power draw"):
            toy_op(power_draws_w={PowerComponent.CPU: -1.0})

    def test_bad_efficiency_matches_scalar_message(self):
        for repeats in (1, 3):
            with pytest.raises(ConfigurationError, match="compute efficiency"):
                evaluate_sequences([toy_grid(repeats, compute_efficiency=1.5)])
            with pytest.raises(ConfigurationError, match="memory efficiency"):
                evaluate_sequences([toy_grid(repeats, memory_efficiency=0.0)])
            with pytest.raises(ConfigurationError, match="compute efficiency"):
                run_lowered_sequence(
                    Machine.for_chip("M1"), toy_grid(repeats, compute_efficiency=1.5)
                )

    def test_zero_peak_with_work_rejected(self):
        with pytest.raises(ConfigurationError, match="peak FLOP rate"):
            evaluate_sequences([toy_grid(peak_flops=0.0)])
        with pytest.raises(ConfigurationError, match="peak bandwidth"):
            evaluate_sequences([toy_grid(peak_bytes_per_s=0.0)])

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigurationError, match="overhead"):
            evaluate_sequences([toy_grid(overhead_s=-1e-9)])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError, match="sigma"):
            evaluate_sequences([toy_grid(noise_sigma=-0.1)], default_sigma=0.015)
        with pytest.raises(ConfigurationError, match="sigma"):
            evaluate_sequences(
                [toy_sequence(toy_op(), toy_op(noise_key="j", noise_sigma=-0.1))],
                default_sigma=0.015,
            )


class TestSequenceContract:
    """A sequence holds the executors' own :class:`Operation` objects."""

    @pytest.mark.parametrize("key", [None, ""])
    def test_keyless_op_rejected(self, key):
        # the scalar engine would key it by chip and label, which the bulk
        # engine never hashes: reject it before either engine sees it
        with pytest.raises(ConfigurationError, match="noise keys"):
            toy_sequence(toy_op(), toy_op(noise_key=key))

    def test_negative_pre_advance_rejected(self):
        with pytest.raises(ConfigurationError, match="pre-advance"):
            toy_sequence(toy_op(), pre_advance_s=-1e-9)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            toy_sequence()

    @pytest.mark.parametrize("sigma", [0.0, 0.015])
    def test_pre_advance_precedes_every_op_on_both_engines(self, sigma):
        op = toy_op()
        sequence = toy_sequence(op, toy_op(noise_key="other"), op, pre_advance_s=2.0)
        windows = evaluate_sequences([sequence], default_sigma=sigma)[0]
        machine = Machine.for_chip("M1", seed=0, noise_sigma=sigma)
        assert windows == run_lowered_sequence(machine, sequence)
        gaps = [b[0] - a[1] for a, b in zip(windows, windows[1:])]
        assert windows[0][0] == 2.0
        assert gaps == [pytest.approx(2.0)] * 2


#: Ops of distinct cost, draw and sigma rule (session default, silent, own).
PROPERTY_OPS = tuple(
    toy_op(
        label=f"prop{i}",
        cost=OpCost(flops=1e8 * (i + 1), bytes_read=1e6 * (6 - i)),
        power_draws_w={PowerComponent.CPU: 1.5 * i, PowerComponent.GPU: 2.0},
        noise_key=f"prop/{i % 4}",
        noise_sigma=(None, 0.0, 0.02)[i % 3],
        noise_gain=(1.0, 1.5)[i % 2],
    )
    for i in range(6)
)
#: The M1 enclosure's model, and one whose 3 W cap throttles most ops.
PROPERTY_THERMALS = (
    machine_template("M1", True).thermal,
    ThermalModel(sustained_cap_w=3.0),
)


@st.composite
def sequence_batches(draw):
    """A batch of sequences of 1-400 ops, some sharing one ops tuple.

    A tuple cycles a pattern of shared op objects, repeats one object
    (``(op,) * R``, a repetition grid), or holds a fresh equal copy of its
    pattern's op at every position.
    """
    tuples = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = draw(st.lists(st.sampled_from(PROPERTY_OPS), min_size=1, max_size=6))
        length = draw(st.sampled_from([1, 2, 5, 80]) | st.integers(1, 400))
        shape = draw(st.sampled_from(["cycle", "one-object", "copies"]))
        if shape == "one-object":
            tuples.append((pattern[0],) * length)
        elif shape == "copies":
            tuples.append(
                tuple(
                    dataclasses.replace(op)
                    for op in itertools.islice(itertools.cycle(pattern), length)
                )
            )
        else:
            tuples.append(tuple(itertools.islice(itertools.cycle(pattern), length)))
    return [
        LoweredSequence(
            seed=draw(st.integers(0, 3)),
            thermal=draw(st.sampled_from(PROPERTY_THERMALS)),
            ops=draw(st.sampled_from(tuples)),
            assemble=window_pairs,
            pre_advance_s=draw(st.sampled_from([0.0, 2.0])),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]


class TestColumnarClock:
    """The bulk clock equals the scalar machine start for start, end for end."""

    @settings(max_examples=40, deadline=None)
    @given(batch=sequence_batches(), sigma=st.sampled_from([0.0, 0.015]))
    def test_bulk_windows_equal_scalar_windows(self, batch, sigma):
        template = machine_template("M1", True)
        scalar = [
            run_lowered_sequence(
                Machine(
                    template.chip,
                    template.device,
                    envelope=template.envelope,
                    thermal=sequence.thermal,
                    seed=sequence.seed,
                    noise_sigma=sigma,
                ),
                sequence,
            )
            for sequence in batch
        ]
        assert evaluate_sequences(batch, default_sigma=sigma) == scalar


class TestNoiseReplayContract:
    """perfbench's traced replay re-draws a sequence's noise through the
    public API, one ``noise_entropies`` call per sequence and one sigma per
    op."""

    def test_replay_call_reproduces_the_engine_factors(self):
        op = toy_op(
            engine=EngineKind.CPU_SIMD,
            cost=OpCost(flops=1e9, bytes_read=1e6, bytes_written=1e6),
            compute_efficiency=0.5,
            memory_efficiency=0.5,
            overhead_s=1e-6,
            noise_key="toy/M1",
        )
        sequence = toy_sequence(*(op,) * 6, assemble=rounded_elapsed_ns)
        sigmas = [resolve_sigma(0.015, op.noise_sigma) for op in sequence.ops]
        factors = lognormal_factors(
            noise_entropies(sequence.seed, [op.noise_key for op in sequence.ops]),
            sigmas,
        )
        machine = Machine.for_chip("M1", seed=sequence.seed)
        assert list(factors) == [
            machine.noise.factor(op.noise_key, sigma, counter=k)
            for k, (op, sigma) in enumerate(zip(sequence.ops, sigmas))
        ]
        base = roofline_time(
            op.cost,
            peak_flops=op.peak_flops,
            peak_bytes_per_s=op.peak_bytes_per_s,
            compute_efficiency=op.compute_efficiency,
            memory_efficiency=op.memory_efficiency,
            overhead_s=op.overhead_s,
        ).total_s
        start, expected = 0.0, []
        for factor in factors:
            end = start + base * factor
            expected.append(max(1, round((end - start) * 1e9)))
            start = end
        assert evaluate_sequences([sequence], default_sigma=0.015)[0] == tuple(
            expected
        )
        assert run_lowered_sequence(machine, sequence) == tuple(expected)

    def test_each_cell_hashes_each_active_key_once(self, monkeypatch):
        """The engine draws one ``noise_entropy`` per (cell seed, key): a
        repetition grid's key once per cell however long, a mixed row's
        active keys once each, and a silent op's key never."""
        from repro.sim import noise

        calls = []
        real = noise.noise_entropy

        def spy(seed, key):
            calls.append((seed, key))
            return real(seed, key)

        monkeypatch.setattr(noise, "noise_entropy", spy)
        op, other = toy_op(), toy_op(noise_key="other", noise_sigma=0.0)
        copies = tuple(dataclasses.replace(op) for _ in range(4))
        batch = [
            toy_sequence(*(op,) * 5, seed=1),
            toy_sequence(*copies, seed=2),
            toy_sequence(op, other, op, seed=3),
            toy_sequence(*(op,) * 5, seed=4),
        ]
        evaluate_sequences(batch, default_sigma=0.015)
        assert sorted(calls) == [(1, "toy"), (2, "toy"), (3, "toy"), (4, "toy")]

    def test_zero_sigma_ops_take_no_counter_on_either_engine(self):
        """A sequence mixing silent and noisy draws of one key: the bulk
        engine skips the silent ops exactly as a machine's counter does."""
        ops = tuple(
            Operation(
                engine=EngineKind.CPU_SIMD,
                label="toy",
                cost=OpCost(flops=1e9),
                peak_flops=1e12,
                peak_bytes_per_s=1e11,
                compute_efficiency=0.5,
                memory_efficiency=0.5,
                overhead_s=1e-6,
                power_draws_w={},
                noise_key=key,
                noise_sigma=sigma,
                noise_gain=gain,
            )
            for key, sigma, gain in (
                ("k", 0.0, 1.0),
                ("k", None, 1.0),
                ("j", 0.02, 1.5),
                ("k", 0.0, 1.0),
                ("k", 0.01, 1.0),
                ("j", None, 1.5),
            )
        )
        sequence = LoweredSequence(
            seed=3,
            thermal=machine_template("M1", True).thermal,
            ops=ops,
            assemble=window_pairs,
        )
        windows = evaluate_sequences([sequence], default_sigma=0.015)[0]
        machine = Machine.for_chip("M1", seed=3)
        assert windows == run_lowered_sequence(machine, sequence)
        factors = [(end - start) / 0.002001 for start, end in windows]
        assert factors[0] == pytest.approx(1.0, rel=1e-12)  # silent ops
        assert factors[3] == pytest.approx(1.0, rel=1e-12)
        assert len({round(f, 9) for f in factors}) == 5
