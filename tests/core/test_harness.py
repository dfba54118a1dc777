"""The section-4 experiment runner."""

import pytest

from repro.calibration import paper
from repro.core.harness import ExperimentRunner
from repro.errors import UnsupportedProblemError

from tests.conftest import make_exact_machine, make_model_machine, make_study_machine


class TestRunGemm:
    def test_five_repetitions_by_default(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        result = runner.run_gemm("gpu-mps", 256)
        assert len(result.repetitions) == paper.GEMM_REPEATS

    def test_flop_count_formula(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        result = runner.run_gemm("gpu-mps", 128)
        assert result.flop_count == 128 * 128 * 255

    def test_verification_runs_when_numerics_do(self):
        runner = ExperimentRunner(make_exact_machine("M1"))
        result = runner.run_gemm("cpu-accelerate", 64)
        assert result.verified is True

    def test_no_verification_in_model_only(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        result = runner.run_gemm("cpu-accelerate", 64)
        assert result.verified is None

    def test_unsupported_size_raises(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        with pytest.raises(UnsupportedProblemError):
            runner.run_gemm("cpu-single", 16384)

    def test_accepts_instance_or_key(self):
        from repro.core.gemm.registry import get_implementation

        runner = ExperimentRunner(make_model_machine("M1"))
        by_key = runner.run_gemm("gpu-naive", 256)
        by_obj = runner.run_gemm(get_implementation("gpu-naive"), 256)
        assert by_key.impl_key == by_obj.impl_key == "gpu-naive"

    def test_repeats_have_distinct_timings_with_noise(self):
        runner = ExperimentRunner(make_study_machine("M2"))
        result = runner.run_gemm("gpu-mps", 2048)
        elapsed = sorted(r.elapsed_ns for r in result.repetitions)
        # one draw per repetition: every pair differs by more than the 1 ns
        # a shared draw's rounding on the advancing clock could explain
        assert all(b - a > 1 for a, b in zip(elapsed, elapsed[1:]))

    def test_seeded_runs_reproduce(self):
        r1 = ExperimentRunner(make_study_machine("M2", seed=11)).run_gemm("gpu-mps", 512)
        r2 = ExperimentRunner(make_study_machine("M2", seed=11)).run_gemm("gpu-mps", 512)
        assert [x.elapsed_ns for x in r1.repetitions] == [
            x.elapsed_ns for x in r2.repetitions
        ]


class TestSweep:
    def test_sweep_skips_excluded_sizes(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        sweep = runner.run_gemm_sweep("cpu-omp", sizes=(512, 4096, 8192, 16384))
        assert set(sweep) == {512, 4096}

    def test_sweep_covers_all_sizes_for_gpu(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        sweep = runner.run_gemm_sweep("gpu-mps", sizes=(32, 1024, 16384), repeats=2)
        assert set(sweep) == {32, 1024, 16384}

    def test_gflops_increase_with_size_for_gpu(self):
        runner = ExperimentRunner(make_model_machine("M4"))
        sweep = runner.run_gemm_sweep("gpu-mps", sizes=(32, 512, 4096, 16384), repeats=1)
        series = [sweep[n].best_gflops for n in (32, 512, 4096, 16384)]
        assert series == sorted(series)


class TestPoweredRuns:
    def test_powered_gemm_returns_matched_measurements(self):
        runner = ExperimentRunner(make_model_machine("M4"))
        powered = runner.run_powered_gemm("gpu-mps", 2048, repeats=3)
        assert len(powered.measurements) == 3
        assert len(powered.gemm.repetitions) == 3

    def test_powered_efficiency_in_figure4_ballpark(self):
        runner = ExperimentRunner(make_model_machine("M3"))
        powered = runner.run_powered_gemm("gpu-mps", 16384, repeats=2)
        target = paper.FIG4_EFFICIENCY_GFLOPS_PER_W["gpu-mps"]["M3"]
        assert powered.efficiency_gflops_per_w == pytest.approx(target, rel=0.08)

    def test_powered_unsupported_size(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        with pytest.raises(UnsupportedProblemError):
            runner.run_powered_gemm("cpu-omp", 16384)


class TestStreamDelegation:
    def test_run_stream(self):
        runner = ExperimentRunner(make_model_machine("M1"))
        result = runner.run_stream("cpu", n_elements=1 << 14, repeats=2)
        assert result.chip_name == "M1"

    def test_gpu_stream_after_other_work_equals_a_fresh_machine_run(self):
        # GPU dispatch noise keys come from the cell's lowering and GEMM
        # work draws other keys, so earlier calls cannot shift their
        # counters; only the later clock origin rounds the windows differently
        from repro.experiments import Session, StreamSpec

        runner = ExperimentRunner(make_study_machine("M2"))
        runner.run_gemm("gpu-mps", 256)
        after_gemm = runner.run_stream("gpu", n_elements=1 << 16, repeats=3)
        spec = StreamSpec(chip="M2", target="gpu", n_elements=1 << 16, repeats=3)
        fresh = Session().run(spec).result
        assert after_gemm.kernels.keys() == fresh.kernels.keys()
        for kernel, result in fresh.kernels.items():
            assert after_gemm.kernels[kernel].bandwidths_gbs == pytest.approx(
                result.bandwidths_gbs, rel=1e-12
            )
