"""CPU and GPU STREAM benchmarks against the Figure-1 targets."""

import pytest

from repro.calibration import paper
from repro.core.harness import ExperimentRunner
from repro.core.stream.cpu import CpuStreamBenchmark
from repro.core.stream.gpu import GpuStreamBenchmark
from repro.core.stream.runner import figure1_row, run_stream
from repro.errors import ConfigurationError
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig

from tests.conftest import make_model_machine, make_study_machine

SMALL = 1 << 14  # fast numerics in FULL-capable tests
BIG = 1 << 23    # model-only sweeps at representative footprint


class TestCpuStream:
    def test_sweep_reaches_paper_max(self):
        machine = make_model_machine("M1")
        result = CpuStreamBenchmark(machine, n_elements=BIG, ntimes=5).run_sweep()
        assert result.max_gbs == pytest.approx(
            paper.FIG1_CPU_MAX_GBS["M1"], rel=0.03
        )

    def test_single_thread_below_sweep_max(self):
        machine = make_model_machine("M2")
        bench = CpuStreamBenchmark(machine, n_elements=BIG, ntimes=3)
        single = bench.run(1)
        sweep = bench.run_sweep()
        assert single["triad"].max_gbs < sweep.max_gbs

    def test_thread_count_clamped_to_cores(self):
        machine = make_model_machine("M1")
        bench = CpuStreamBenchmark(machine, n_elements=SMALL, ntimes=1)
        result = bench.run(64)
        assert result["triad"].best_threads == machine.chip.total_cores

    def test_m2_anomaly_reproduced(self):
        """Copy/Scale trail Add/Triad by 20-30 GB/s on the M2 CPU."""
        machine = make_model_machine("M2")
        result = CpuStreamBenchmark(machine, n_elements=BIG, ntimes=3).run_sweep()
        gap = min(
            result.kernels["add"].max_gbs, result.kernels["triad"].max_gbs
        ) - max(result.kernels["copy"].max_gbs, result.kernels["scale"].max_gbs)
        lo, hi = paper.FIG1_M2_CPU_ANOMALY_GAP_GBS
        assert lo - 4.0 <= gap <= hi + 4.0

    def test_numerics_run_and_validate(self):
        machine = make_study_machine("M1")  # sampled => stream numerics on
        bench = CpuStreamBenchmark(machine, n_elements=SMALL, ntimes=3)
        result = bench.run(2)
        assert set(result) == {"copy", "scale", "add", "triad"}
        assert all(len(r.bandwidths_gbs) == 3 for r in result.values())

    def test_repetitions_vary_with_noise(self):
        machine = make_study_machine("M3")
        bench = CpuStreamBenchmark(machine, n_elements=SMALL, ntimes=4)
        values = bench.run(4)["triad"].bandwidths_gbs
        assert len(set(values)) > 1

    def test_rejects_zero_repeats(self):
        with pytest.raises(ConfigurationError):
            CpuStreamBenchmark(make_model_machine("M1"), ntimes=0)


class TestGpuStream:
    def test_reaches_paper_max(self):
        machine = make_model_machine("M4")
        result = GpuStreamBenchmark(machine, n_elements=BIG, ntimes=5).run()
        assert result.max_gbs == pytest.approx(
            paper.FIG1_GPU_MAX_GBS["M4"], rel=0.03
        )

    def test_small_arrays_underreport(self):
        machine = make_model_machine("M4")
        small = GpuStreamBenchmark(machine, n_elements=1 << 14, ntimes=2).run()
        big = GpuStreamBenchmark(machine, n_elements=BIG, ntimes=2).run()
        assert small.max_gbs < big.max_gbs

    def test_numerics_validate(self):
        machine = make_study_machine("M1")
        result = GpuStreamBenchmark(machine, n_elements=SMALL, ntimes=3).run()
        assert result.target == "gpu"
        assert result.element_bytes == 4  # FP32 MSL port

    def test_uses_gpu_engine(self):
        machine = make_model_machine("M2")
        GpuStreamBenchmark(machine, n_elements=SMALL, ntimes=1).run()
        assert machine.trace.events(engine="gpu")
        assert not machine.trace.events(engine="cpu-simd")


class TestRunner:
    def test_run_stream_targets(self):
        machine = make_model_machine("M1")
        cpu = run_stream(machine, "cpu", n_elements=SMALL, repeats=2)
        gpu = run_stream(machine, "gpu", n_elements=SMALL, repeats=2)
        assert cpu.target == "cpu" and gpu.target == "gpu"

    def test_default_repeats_follow_paper(self):
        machine = make_model_machine("M1")
        cpu = run_stream(machine, "cpu", n_elements=SMALL)
        gpu = run_stream(machine, "gpu", n_elements=SMALL)
        assert all(
            len(k.bandwidths_gbs) == paper.STREAM_CPU_REPEATS
            for k in cpu.kernels.values()
        )
        assert all(
            len(k.bandwidths_gbs) == paper.STREAM_GPU_REPEATS
            for k in gpu.kernels.values()
        )

    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            run_stream(make_model_machine("M1"), "npu")

    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    @pytest.mark.parametrize(
        "kwargs", [{"n_elements": 0}, {"repeats": 0}], ids=["elements", "repeats"]
    )
    def test_zero_sizes_are_rejected_not_defaulted(self, target, kwargs):
        # 0 is not "unset": it must not silently run the paper defaults
        machine = make_model_machine("M1")
        with pytest.raises(ConfigurationError):
            run_stream(machine, target, **kwargs)
        assert machine.now_s() == 0.0

    @pytest.mark.parametrize(
        "numerics",
        [NumericsConfig.full(), NumericsConfig.sampled(), NumericsConfig.model_only()],
        ids=["full", "sampled", "model-only"],
    )
    def test_run_stream_equals_experiment_runner_on_used_machines(self, numerics):
        """Both entry points run the STREAM lowering, so on identically
        pre-used machines (clock advanced, noise counters consumed) they
        agree result for result and leave the same clock behind."""

        def used() -> Machine:
            machine = Machine.for_chip("M2", seed=9, numerics=numerics)
            ExperimentRunner(machine).run_gemm("gpu-mps", 256, repeats=2)
            GpuStreamBenchmark(machine, n_elements=SMALL, ntimes=2).run()
            return machine

        direct, runner = used(), used()
        for target, n_elements, repeats in (
            ("gpu", SMALL, 2),
            ("cpu", SMALL, 3),
            ("gpu", SMALL, None),
        ):
            assert run_stream(
                direct, target, n_elements=n_elements, repeats=repeats
            ) == ExperimentRunner(runner).run_stream(
                target, n_elements=n_elements, repeats=repeats
            )
        assert direct.now_s() == runner.now_s()

    def test_figure1_row_shape(self):
        row = figure1_row(make_model_machine("M3"), n_elements=SMALL, repeats=2)
        assert set(row) == {"cpu", "gpu"}
        for result in row.values():
            assert set(result.kernels) == {"copy", "scale", "add", "triad"}

    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_cpu_below_theoretical_everywhere(self, chip):
        machine = make_model_machine(chip)
        result = run_stream(machine, "cpu", n_elements=SMALL, repeats=2)
        assert result.max_gbs < machine.chip.memory.bandwidth_gbs
