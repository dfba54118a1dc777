"""End-to-end reproduction checks: the headline claims of the paper.

These run the real experiment pipeline (default machines, SAMPLED numerics)
at the paper's reference sizes and pin the measured values to the quoted
ones.  They are the executable form of EXPERIMENTS.md.
"""

import pytest

from repro.calibration import paper
from repro.core.harness import ExperimentRunner
from repro.core.stream.runner import run_stream
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig


def machine_for(chip: str) -> Machine:
    # SAMPLED numerics with a low threshold: the full pipeline incl. real
    # sampled arithmetic, at test-friendly cost.
    return Machine.for_chip(
        chip, numerics=NumericsConfig.sampled(full_threshold=128, sample_rows=2)
    )


class TestFigure1Headlines:
    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_cpu_bandwidth(self, chip):
        result = run_stream(
            machine_for(chip), "cpu", n_elements=1 << 21, repeats=3
        )
        assert result.max_gbs == pytest.approx(
            paper.FIG1_CPU_MAX_GBS[chip], rel=0.04
        )

    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_gpu_bandwidth(self, chip):
        result = run_stream(
            machine_for(chip), "gpu", n_elements=1 << 24, repeats=3
        )
        assert result.max_gbs == pytest.approx(
            paper.FIG1_GPU_MAX_GBS[chip], rel=0.04
        )

    def test_all_chips_near_theoretical_peak(self):
        for chip in paper.CHIPS:
            result = run_stream(
                machine_for(chip), "gpu", n_elements=1 << 24, repeats=2
            )
            assert result.fraction_of_peak >= 0.80


class TestFigure2Headlines:
    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_mps_peak(self, chip):
        runner = ExperimentRunner(machine_for(chip))
        result = runner.run_gemm("gpu-mps", 16384, repeats=3)
        assert result.best_gflops == pytest.approx(
            paper.FIG2_PEAK_GFLOPS["gpu-mps"][chip], rel=0.04
        )

    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_accelerate_peak(self, chip):
        runner = ExperimentRunner(machine_for(chip))
        result = runner.run_gemm("cpu-accelerate", 16384, repeats=3)
        assert result.best_gflops == pytest.approx(
            paper.FIG2_PEAK_GFLOPS["cpu-accelerate"][chip], rel=0.04
        )

    def test_m1_cpu_gpu_parity_then_gpu_pulls_ahead(self):
        """'The M1 CPU and GPU have similar performance ... starting from
        the M2, the GPU significantly outperforms the CPU.'"""
        peaks = {}
        for chip in paper.CHIPS:
            runner = ExperimentRunner(machine_for(chip))
            mps = runner.run_gemm("gpu-mps", 16384, repeats=2).best_gflops
            acc = runner.run_gemm("cpu-accelerate", 16384, repeats=2).best_gflops
            peaks[chip] = mps / acc
        assert peaks["M1"] < 2.0
        for chip in ("M2", "M3", "M4"):
            assert peaks[chip] > 1.6

    def test_gpu_loses_at_small_sizes(self):
        """'They are less optimal at smaller sizes for their large overhead.'"""
        runner = ExperimentRunner(machine_for("M4"))
        mps = runner.run_gemm("gpu-mps", 32, repeats=2).best_gflops
        acc = runner.run_gemm("cpu-accelerate", 32, repeats=2).best_gflops
        assert mps < acc

    def test_naive_cpu_is_orders_of_magnitude_slow(self):
        runner = ExperimentRunner(machine_for("M4"))
        single = runner.run_gemm("cpu-single", 1024, repeats=1).best_gflops
        mps = runner.run_gemm("gpu-mps", 1024, repeats=1).best_gflops
        assert mps / single > 100.0


class TestFigure34Headlines:
    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_mps_efficiency(self, chip):
        runner = ExperimentRunner(machine_for(chip))
        powered = runner.run_powered_gemm("gpu-mps", 16384, repeats=3)
        assert powered.efficiency_gflops_per_w == pytest.approx(
            paper.FIG4_EFFICIENCY_GFLOPS_PER_W["gpu-mps"][chip], rel=0.08
        )
        assert powered.efficiency_gflops_per_w >= 200.0

    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_accelerate_efficiency(self, chip):
        runner = ExperimentRunner(machine_for(chip))
        powered = runner.run_powered_gemm("cpu-accelerate", 16384, repeats=3)
        assert powered.efficiency_gflops_per_w == pytest.approx(
            paper.FIG4_EFFICIENCY_GFLOPS_PER_W["cpu-accelerate"][chip], rel=0.08
        )

    def test_cpu_loops_below_one_gflops_per_watt(self):
        for chip in ("M1", "M4"):
            runner = ExperimentRunner(machine_for(chip))
            for impl in ("cpu-single", "cpu-omp"):
                powered = runner.run_powered_gemm(impl, 4096, repeats=2)
                assert powered.efficiency_gflops_per_w < 1.0

    def test_power_range_few_watts_to_twenty(self):
        """'Our measurements range from a few to 20 Watts.'"""
        seen = []
        for chip in paper.CHIPS:
            runner = ExperimentRunner(machine_for(chip))
            for impl in ("cpu-accelerate", "gpu-cutlass", "gpu-mps"):
                powered = runner.run_powered_gemm(impl, 16384, repeats=1)
                seen.append(powered.mean_combined_w)
        assert min(seen) >= 2.0
        assert 17.0 <= max(seen) <= 21.0

    def test_m4_cutlass_is_power_peak(self):
        runner = ExperimentRunner(machine_for("M4"))
        powered = runner.run_powered_gemm("gpu-cutlass", 16384, repeats=2)
        assert powered.mean_combined_w == pytest.approx(19.8, rel=0.06)
