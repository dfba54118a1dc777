"""Chrono-style timing and result records."""

import pytest

from repro.core.results import (
    GemmRepetition,
    GemmResult,
    PowerMeasurement,
    PoweredGemmResult,
    StreamKernelResult,
    StreamResult,
    summarize_series,
)
from repro.core.timer import Stopwatch, high_resolution_clock_now, measure_ns
from repro.errors import ConfigurationError

from tests.conftest import make_exact_machine


class TestTimer:
    def test_now_is_integral_ns(self, machine):
        t = high_resolution_clock_now(machine)
        assert isinstance(t, int)

    def test_measure_ns(self, machine):
        elapsed = measure_ns(machine, lambda: machine.sleep(1.5e-3))
        assert elapsed == 1_500_000

    def test_measure_excludes_outside_work(self, machine):
        machine.sleep(1.0)  # "setup"
        elapsed = measure_ns(machine, lambda: machine.sleep(1e-3))
        # Chrono-style truncation may lose one nanosecond at the boundary.
        assert abs(elapsed - 1_000_000) <= 1

    def test_stopwatch_laps(self, machine):
        watch = Stopwatch(machine)
        with watch.lap():
            machine.sleep(1e-3)
        with watch.lap():
            machine.sleep(2e-3)
        assert watch.laps == [1_000_000, 2_000_000]
        assert watch.total_ns == 3_000_000


class TestGemmResult:
    def _result(self, elapsed_list, n=64):
        return GemmResult(
            impl_key="gpu-mps",
            chip_name="M1",
            n=n,
            flop_count=n * n * (2 * n - 1),
            elapsed_ns=tuple(elapsed_list),
        )

    def test_gflops_from_ns(self):
        result = self._result([1_000_000], n=64)
        # flops / elapsed_ns == GFLOPS by unit identity.
        assert result.best_gflops == pytest.approx(64 * 64 * 127 / 1e6)

    def test_best_is_fastest_repetition(self):
        result = self._result([2_000_000, 1_000_000, 3_000_000])
        assert result.best_elapsed_ns == 1_000_000
        assert result.best_gflops > result.mean_gflops

    def test_requires_repetitions(self):
        with pytest.raises(ConfigurationError):
            GemmResult("x", "M1", 4, 100, elapsed_ns=())

    def test_rejects_non_positive_elapsed(self):
        with pytest.raises(ConfigurationError):
            GemmRepetition(repetition=0, elapsed_ns=0)


class TestStreamResults:
    def test_max_is_reported_statistic(self):
        kernel = StreamKernelResult("triad", (50.0, 59.0, 55.0))
        assert kernel.max_gbs == 59.0
        assert kernel.mean_gbs == pytest.approx(54.666666, rel=1e-5)

    def test_stream_result_fraction(self):
        result = StreamResult(
            chip_name="M1",
            target="cpu",
            n_elements=1000,
            element_bytes=8,
            kernels={"triad": StreamKernelResult("triad", (59.0,))},
            theoretical_gbs=67.0,
        )
        assert result.max_gbs == 59.0
        assert result.fraction_of_peak == pytest.approx(59.0 / 67.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamKernelResult("triad", ())
        with pytest.raises(ConfigurationError):
            StreamKernelResult("triad", (0.0,))
        with pytest.raises(ConfigurationError):
            StreamResult("M1", "npu", 10, 8, {"triad": StreamKernelResult("t", (1.0,))}, 67.0)


class TestPowerResults:
    def test_combined_and_energy(self):
        m = PowerMeasurement(cpu_mw=480.0, gpu_mw=8300.0, elapsed_ms=2000.0)
        assert m.combined_mw == 8780.0
        assert m.combined_w == 8.78
        assert m.energy_j == pytest.approx(17.56)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerMeasurement(cpu_mw=-1.0, gpu_mw=0.0, elapsed_ms=1.0)
        with pytest.raises(ConfigurationError):
            PowerMeasurement(cpu_mw=1.0, gpu_mw=0.0, elapsed_ms=0.0)

    def test_powered_result_efficiency(self):
        gemm = GemmResult("gpu-mps", "M1", 64, 64 * 64 * 127, (1_000_000,))
        power = PowerMeasurement(cpu_mw=500.0, gpu_mw=5500.0, elapsed_ms=1.0)
        powered = PoweredGemmResult(gemm, (power,))
        assert powered.mean_combined_w == pytest.approx(6.0)
        assert powered.efficiency_gflops_per_w == pytest.approx(
            gemm.best_gflops / 6.0
        )


class TestSummary:
    def test_summary(self):
        s = summarize_series([1.0, 2.0, 3.0])
        assert s["min"] == 1.0 and s["max"] == 3.0 and s["mean"] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_series([])
