"""Crossover structure of Figure 2: where the GPU overtakes the CPU.

The paper's figure shows GPU methods losing at small n (dispatch overhead)
and winning at large n — these tests pin down *where* that flip happens in
the reproduction, which is interpolated behaviour the model produces beyond
the paper's quoted peaks.
"""

import pytest

from repro.calibration import paper
from repro.core.harness import ExperimentRunner

from tests.conftest import make_model_machine


def sweep(chip: str, impl: str) -> dict[int, float]:
    runner = ExperimentRunner(make_model_machine(chip))
    return {
        n: r.best_gflops
        for n, r in runner.run_gemm_sweep(impl, repeats=2).items()
    }


class TestMpsVsAccelerateCrossover:
    @pytest.mark.parametrize("chip", list(paper.CHIPS))
    def test_crossover_exists_and_is_mid_range(self, chip):
        mps = sweep(chip, "gpu-mps")
        acc = sweep(chip, "cpu-accelerate")
        flips = [
            n for n in paper.GEMM_SIZES
            if n in mps and n in acc and mps[n] > acc[n]
        ]
        assert flips, "MPS never overtakes Accelerate"
        crossover = min(flips)
        # Dispatch overhead keeps the GPU behind through the small sizes;
        # by a few thousand it must lead everywhere from M2 on.
        assert 128 <= crossover <= 8192, crossover
        below = [n for n in paper.GEMM_SIZES if n < crossover]
        if below:
            assert mps[below[-1]] <= acc[below[-1]]

    def test_m1_crossover_later_than_m4(self):
        """The weaker M1 GPU needs larger problems to beat its AMX."""

        def crossover(chip):
            mps, acc = sweep(chip, "gpu-mps"), sweep(chip, "cpu-accelerate")
            return min(
                n for n in paper.GEMM_SIZES
                if n in mps and n in acc and mps[n] > acc[n]
            )

        assert crossover("M1") >= crossover("M4")


class TestNaiveShaderVsCpu:
    def test_gpu_naive_beats_cpu_single_from_mid_sizes(self):
        naive = sweep("M2", "gpu-naive")
        single = sweep("M2", "cpu-single")
        assert naive[4096] > single[4096] * 50  # orders of magnitude at 4k
        assert naive[32] < 10.0  # still buried in overhead at 32

    def test_cpu_single_peaks_mid_range_then_decays(self):
        """The cache-spill signature of the naive loop (Figure 2 shape)."""
        single = sweep("M3", "cpu-single")
        peak_n = max(single, key=single.get)
        assert 256 <= peak_n <= 1024
        assert single[4096] < single[peak_n]


class TestOverheadRegime:
    @pytest.mark.parametrize("impl", ["gpu-mps", "gpu-naive", "gpu-cutlass"])
    def test_small_sizes_overhead_bound(self, impl):
        """At n=32 the simulated op is overhead-bound, as the paper argues."""
        from repro.calibration.gemm import build_gemm_operation

        machine = make_model_machine("M4")
        done = machine.execute(build_gemm_operation(machine.chip, impl, 32))
        assert done.breakdown.bound == "overhead"

    def test_large_sizes_compute_bound(self):
        from repro.calibration.gemm import build_gemm_operation

        machine = make_model_machine("M4")
        done = machine.execute(
            build_gemm_operation(machine.chip, "gpu-mps", 16384)
        )
        assert done.breakdown.bound == "compute"
