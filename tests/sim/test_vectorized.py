"""The vectorized evaluation engine, at the simulator level.

Backend-level byte-identity lives in
``tests/experiments/test_vectorized_backend.py``; here the engine itself is
pinned down: lowered cells evaluate exactly like the scalar machine, the
shared chip templates really are shared, and malformed lowerings fail with
the scalar engine's error messages.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import EngineKind
from repro.sim.machine import Machine, machine_template
from repro.sim.noise import lognormal_factors, noise_entropies, resolve_sigma
from repro.sim.policy import NumericsConfig
from repro.sim.roofline import OpCost, roofline_time
from repro.sim.vectorized import (
    LoweredCell,
    LoweredOp,
    LoweredSequence,
    evaluate_cells,
    evaluate_sequences,
    run_lowered_cell,
    run_lowered_sequence,
    vector_context,
)
from repro.workloads import get_workload


def lowered_sample_cells():
    """One lowered cell per fast-path workload, on context machines."""
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
        bulk = evaluate_cells(cells, default_sigma=0.015)
        for cell, result in zip(cells, bulk):
            machine = Machine.for_chip(
                chip_name(cell),
                seed=cell.seed,
                numerics=NumericsConfig.model_only(),
            )
            assert result == run_lowered_cell(machine, cell)

    def test_single_cell_batch_equals_many_cell_batch(self):
        """Batch shape must not leak into results."""
        cells = lowered_sample_cells()
        together = evaluate_cells(cells, default_sigma=0.015)
        alone = [
            evaluate_cells([cell], default_sigma=0.015)[0] for cell in cells
        ]
        assert together == alone

    def test_ragged_repeat_counts(self):
        """Cells with different repetition counts pad without cross-talk."""
        workload = get_workload("spmv")
        context = vector_context("M1", True, NumericsConfig.model_only())
        specs = [
            workload.sample_spec(),
            type(workload.sample_spec())(chip="M1", target="gpu", n=4096, repeats=7),
        ]
        cells = [workload.vectorized_body(context, s) for s in specs]
        together = evaluate_cells(cells, default_sigma=0.015)
        alone = [
            evaluate_cells([cell], default_sigma=0.015)[0] for cell in cells
        ]
        assert together == alone

    def test_zero_sigma_disables_noise(self):
        cells = lowered_sample_cells()
        a = evaluate_cells(cells, default_sigma=0.0)
        machines = [
            Machine.for_chip(
                chip_name(cell),
                seed=cell.seed,
                noise_sigma=0.0,
                numerics=NumericsConfig.model_only(),
            )
            for cell in cells
        ]
        b = [run_lowered_cell(m, c) for m, c in zip(machines, cells)]
        assert a == b


def chip_name(cell: LoweredCell) -> str:
    """Recover the chip a lowered cell was built for (label-addressed keys)."""
    # noise keys embed the chip name: "<kind>/<chip>/..."
    return cell.noise_keys[0].split("/")[1]


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


def toy_cell(**overrides) -> LoweredCell:
    defaults = dict(
        engine=EngineKind.CPU_SIMD,
        label="toy",
        cost=OpCost(flops=1e9, bytes_read=1e6, bytes_written=1e6),
        peak_flops=1e12,
        peak_bytes_per_s=1e11,
        compute_efficiency=0.5,
        memory_efficiency=0.5,
        overhead_s=1e-6,
        power_draws_w={},
        noise_keys=("toy/rep=0",),
        noise_sigma=0.01,
        seed=0,
        thermal=machine_template("M1", True).thermal,
        assemble=lambda elapsed_ns: elapsed_ns,
    )
    defaults.update(overrides)
    return LoweredCell(**defaults)


class TestValidationParity:
    def test_empty_batch(self):
        assert evaluate_cells([], default_sigma=0.015) == []

    def test_label_required(self):
        with pytest.raises(ConfigurationError, match="label"):
            toy_cell(label="")

    def test_at_least_one_repetition(self):
        with pytest.raises(ConfigurationError, match="repetition"):
            toy_cell(noise_keys=())

    def test_empty_noise_key_rejected(self):
        """An empty key would hit the scalar engine's chip/label fallback
        while the vectorized engine hashed "" — reject, never diverge."""
        with pytest.raises(ConfigurationError, match="non-empty"):
            toy_cell(noise_keys=("ok", ""))

    def test_negative_power_draw_rejected(self):
        from repro.soc.power import PowerComponent

        with pytest.raises(ConfigurationError, match="negative power draw"):
            toy_cell(power_draws_w={PowerComponent.CPU: -1.0})

    def test_bad_efficiency_matches_scalar_message(self):
        with pytest.raises(ConfigurationError, match="compute efficiency"):
            evaluate_cells([toy_cell(compute_efficiency=1.5)])
        with pytest.raises(ConfigurationError, match="memory efficiency"):
            evaluate_cells([toy_cell(memory_efficiency=0.0)])

    def test_zero_peak_with_work_rejected(self):
        with pytest.raises(ConfigurationError, match="peak FLOP rate"):
            evaluate_cells([toy_cell(peak_flops=0.0)])
        with pytest.raises(ConfigurationError, match="peak bandwidth"):
            evaluate_cells([toy_cell(peak_bytes_per_s=0.0)])

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigurationError, match="overhead"):
            evaluate_cells([toy_cell(overhead_s=-1e-9)])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError, match="sigma"):
            evaluate_cells([toy_cell(noise_sigma=-0.1)], default_sigma=0.015)

    def test_scalar_operation_reconstruction(self):
        cell = toy_cell(noise_keys=("a", "b"))
        op = cell.operation(1)
        assert op.noise_key == "b"
        assert op.cost is cell.cost
        assert op.compute_efficiency == cell.compute_efficiency


class TestNoiseReplayContract:
    """perfbench's traced replay re-draws a cell's noise through the public
    API, one ``noise_entropies`` call per cell and one sigma per entropy."""

    def test_replay_call_reproduces_the_engine_factors(self):
        cell = dataclasses.replace(
            toy_cell(noise_keys=("toy/M1",) * 6), assemble=lambda ns: ns
        )
        sigma = resolve_sigma(0.015, cell.noise_sigma)
        factors = lognormal_factors(
            noise_entropies(cell.seed, cell.noise_keys), [sigma] * cell.repeats
        )
        machine = Machine.for_chip("M1", seed=cell.seed)
        assert list(factors) == [
            machine.noise.factor(key, sigma, counter=k)
            for k, key in enumerate(cell.noise_keys)
        ]
        base = roofline_time(
            cell.cost,
            peak_flops=cell.peak_flops,
            peak_bytes_per_s=cell.peak_bytes_per_s,
            compute_efficiency=cell.compute_efficiency,
            memory_efficiency=cell.memory_efficiency,
            overhead_s=cell.overhead_s,
        ).total_s
        start, expected = 0.0, []
        for factor in factors:
            end = start + base * factor
            expected.append(max(1, round((end - start) * 1e9)))
            start = end
        assert evaluate_cells([cell], default_sigma=0.015)[0] == tuple(expected)
        assert run_lowered_cell(machine, cell) == tuple(expected)

    def test_zero_sigma_ops_take_no_counter_on_either_engine(self):
        """A sequence mixing silent and noisy draws of one key: the bulk
        engine skips the silent ops exactly as a machine's counter does."""
        ops = tuple(
            LoweredOp(
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
            assemble=lambda windows: windows,
        )
        windows = evaluate_sequences([sequence], default_sigma=0.015)[0]
        machine = Machine.for_chip("M1", seed=3)
        assert windows == run_lowered_sequence(machine, sequence)
        factors = [(end - start) / 0.002001 for start, end in windows]
        assert factors[0] == pytest.approx(1.0, rel=1e-12)  # silent ops
        assert factors[3] == pytest.approx(1.0, rel=1e-12)
        assert len({round(f, 9) for f in factors}) == 5
