"""End-to-end reproduction checks: the headline claims of the paper.

These run the real experiment pipeline (default machines, SAMPLED numerics)
at the paper's reference sizes and pin the measured values to the quoted
ones.  They are the executable form of EXPERIMENTS.md.
"""

import pytest

from repro.calibration import paper
from repro.core.stream.runner import run_stream
from repro.experiments import GemmSpec, PoweredGemmSpec, Session
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig

# SAMPLED numerics with a low threshold: the full pipeline incl. real
# sampled arithmetic, at test-friendly cost.
NUMERICS = NumericsConfig.sampled(full_threshold=128, sample_rows=2)


def machine_for(chip: str) -> Machine:
    return Machine.for_chip(chip, numerics=NUMERICS)


def gemm(chip: str, impl_key: str, n: int, repeats: int):
    """One Figure-2 cell on a fresh machine."""
    spec = GemmSpec(chip=chip, impl_key=impl_key, n=n, repeats=repeats)
    return Session(numerics=NUMERICS).run(spec).result


def powered(chip: str, impl_key: str, n: int, repeats: int):
    """One Figure-3/4 cell on a fresh machine."""
    spec = PoweredGemmSpec(chip=chip, impl_key=impl_key, n=n, repeats=repeats)
    return Session(numerics=NUMERICS).run(spec).result


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
        result = gemm(chip, "gpu-mps", 16384, repeats=3)
        assert result.best_gflops == pytest.approx(
            paper.FIG2_PEAK_GFLOPS["gpu-mps"][chip], rel=0.04
        )

    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_accelerate_peak(self, chip):
        result = gemm(chip, "cpu-accelerate", 16384, repeats=3)
        assert result.best_gflops == pytest.approx(
            paper.FIG2_PEAK_GFLOPS["cpu-accelerate"][chip], rel=0.04
        )

    def test_m1_cpu_gpu_parity_then_gpu_pulls_ahead(self):
        """'The M1 CPU and GPU have similar performance ... starting from
        the M2, the GPU significantly outperforms the CPU.'"""
        peaks = {}
        for chip in paper.CHIPS:
            mps = gemm(chip, "gpu-mps", 16384, repeats=2).best_gflops
            acc = gemm(chip, "cpu-accelerate", 16384, repeats=2).best_gflops
            peaks[chip] = mps / acc
        assert peaks["M1"] < 2.0
        for chip in ("M2", "M3", "M4"):
            assert peaks[chip] > 1.6

    def test_gpu_loses_at_small_sizes(self):
        """'They are less optimal at smaller sizes for their large overhead.'"""
        mps = gemm("M4", "gpu-mps", 32, repeats=2).best_gflops
        acc = gemm("M4", "cpu-accelerate", 32, repeats=2).best_gflops
        assert mps < acc

    def test_naive_cpu_is_orders_of_magnitude_slow(self):
        single = gemm("M4", "cpu-single", 1024, repeats=1).best_gflops
        mps = gemm("M4", "gpu-mps", 1024, repeats=1).best_gflops
        assert mps / single > 100.0


class TestFigure34Headlines:
    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_mps_efficiency(self, chip):
        result = powered(chip, "gpu-mps", 16384, repeats=3)
        assert result.efficiency_gflops_per_w == pytest.approx(
            paper.FIG4_EFFICIENCY_GFLOPS_PER_W["gpu-mps"][chip], rel=0.08
        )
        assert result.efficiency_gflops_per_w >= 200.0

    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_accelerate_efficiency(self, chip):
        result = powered(chip, "cpu-accelerate", 16384, repeats=3)
        assert result.efficiency_gflops_per_w == pytest.approx(
            paper.FIG4_EFFICIENCY_GFLOPS_PER_W["cpu-accelerate"][chip], rel=0.08
        )

    def test_cpu_loops_below_one_gflops_per_watt(self):
        for chip in ("M1", "M4"):
            for impl in ("cpu-single", "cpu-omp"):
                result = powered(chip, impl, 4096, repeats=2)
                assert result.efficiency_gflops_per_w < 1.0

    def test_power_range_few_watts_to_twenty(self):
        """'Our measurements range from a few to 20 Watts.'"""
        seen = []
        for chip in paper.CHIPS:
            for impl in ("cpu-accelerate", "gpu-cutlass", "gpu-mps"):
                seen.append(powered(chip, impl, 16384, repeats=1).mean_combined_w)
        assert min(seen) >= 2.0
        assert 17.0 <= max(seen) <= 21.0

    def test_m4_cutlass_is_power_peak(self):
        result = powered("M4", "gpu-cutlass", 16384, repeats=2)
        assert result.mean_combined_w == pytest.approx(19.8, rel=0.06)
