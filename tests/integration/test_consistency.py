"""Cross-module consistency properties of the whole simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import paper
from repro.calibration.gemm import KNOWN_IMPL_KEYS, build_gemm_operation
from repro.experiments import Session
from repro.soc.catalog import CHIP_NAMES, get_chip
from repro.soc.power import PowerComponent

from tests.conftest import figure_series, make_model_machine

chips = st.sampled_from(list(CHIP_NAMES))
impls = st.sampled_from([k for k in KNOWN_IMPL_KEYS])
sizes = st.sampled_from(list(paper.GEMM_SIZES))


class TestSimulatorInvariants:
    @settings(max_examples=60, deadline=None)
    @given(chips, impls, sizes)
    def test_any_valid_cell_executes_cleanly(self, chip, impl, n):
        """Every supported (chip, impl, n) cell produces a positive-duration
        operation with bounded power."""
        from repro.calibration.gemm import gemm_calibration

        spec = get_chip(chip)
        if not gemm_calibration(spec, impl).supports(n):
            return
        machine = make_model_machine(chip)
        done = machine.execute(build_gemm_operation(spec, impl, n))
        assert done.elapsed_s > 0
        for comp, watts in done.draws_w.items():
            assert 0.0 <= watts <= machine.envelope.max_watts(comp) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(chips, impls, sizes)
    def test_energy_equals_power_times_time(self, chip, impl, n):
        from repro.calibration.gemm import gemm_calibration

        spec = get_chip(chip)
        if not gemm_calibration(spec, impl).supports(n):
            return
        machine = make_model_machine(chip)
        done = machine.execute(build_gemm_operation(spec, impl, n))
        recorded = machine.recorder.energy_j(done.start_s, done.end_s)
        idle = machine.envelope.total_idle_watts() * done.elapsed_s
        active_components = set(done.draws_w)
        idle_of_active = sum(
            machine.envelope.idle_watts(c) for c in active_components
        ) * done.elapsed_s
        expected = done.energy_j() + idle - idle_of_active
        assert recorded == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(chips, sizes)
    def test_gflops_never_exceed_engine_peak(self, chip, n):
        from repro.calibration.gemm import gemm_calibration

        spec = get_chip(chip)
        machine = make_model_machine(chip)
        for impl in KNOWN_IMPL_KEYS:
            cal = gemm_calibration(spec, impl)
            if not cal.supports(n):
                continue
            op = build_gemm_operation(spec, impl, n)
            done = machine.execute(op)
            assert done.achieved_flops <= op.peak_flops * 1.0001

    @settings(max_examples=20, deadline=None)
    @given(chips, impls)
    def test_gpu_series_monotone_up_to_peak(self, chip, impl):
        """GFLOPS over the size sweep rises monotonically for GPU paths
        (their curves are pure ramps + fixed overhead)."""
        if not impl.startswith("gpu"):
            return
        machine = make_model_machine(chip)
        spec = get_chip(chip)
        series = []
        for n in paper.GEMM_SIZES:
            done = machine.execute(build_gemm_operation(spec, impl, n))
            series.append(done.achieved_flops)
        assert series == sorted(series)


class TestPowermetricsConservation:
    @settings(max_examples=15, deadline=None)
    @given(chips, st.sampled_from(["cpu-accelerate", "gpu-mps", "gpu-cutlass"]))
    def test_tool_reports_recorder_average(self, chip, impl):
        """powermetrics output == exact recorder integral (to mW rounding)."""
        from repro.powermetrics import PowerMetrics, parse_samples

        machine = make_model_machine(chip)
        spec = get_chip(chip)
        tool = PowerMetrics(machine)
        tool.start()
        t0 = machine.now_s()
        machine.execute(build_gemm_operation(spec, impl, 4096))
        t1 = machine.now_s()
        tool.siginfo()
        sample = parse_samples(tool.stop())[0]
        expected_cpu = (
            machine.recorder.average_power_w(t0, t1, (PowerComponent.CPU,)) * 1e3
        )
        expected_gpu = (
            machine.recorder.average_power_w(t0, t1, (PowerComponent.GPU,)) * 1e3
        )
        assert sample.cpu_mw == pytest.approx(expected_cpu, abs=0.51)
        assert sample.gpu_mw == pytest.approx(expected_gpu, abs=0.51)


class TestDeterminism:
    def test_identical_seeds_identical_figures(self):
        def run():
            return figure_series(
                "figure2",
                ("M1",),
                Session(numerics="model-only", seed=123),
                sizes=(512, 4096),
                impl_keys=("gpu-mps",),
                repeats=3,
            )

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            return figure_series(
                "figure2",
                ("M1",),
                Session(numerics="model-only", seed=seed),
                sizes=(4096,),
                impl_keys=("gpu-mps",),
                repeats=3,
            )

        assert run(1) != run(2)
