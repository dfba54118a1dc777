"""The section-3.3 power protocol around GEMM runs."""

import pytest

from repro.calibration import paper
from repro.calibration.gemm import gemm_power_draws
from repro.core.gemm.base import GemmProblem
from repro.core.gemm.registry import get_implementation
from repro.core.power.harness import PowerInstrumentedRun, measure_gemm_power
from repro.core.power.metrics import efficiency_gflops_per_w, energy_to_solution_j
from repro.core.results import GemmResult, PowerMeasurement
from repro.soc.power import PowerComponent

from tests.conftest import make_exact_machine, make_model_machine


class TestProtocol:
    def test_measurement_window_covers_workload_only(self):
        machine = make_exact_machine("M1")
        run = PowerInstrumentedRun(machine)
        measurement, text = run.measure(lambda: machine.sleep(0.5))
        assert measurement.elapsed_ms == pytest.approx(500.0)
        # Two sample blocks: warm-up + measurement.
        assert text.count("Sampled system activity") == 2

    def test_warmup_duration_is_two_seconds(self):
        machine = make_exact_machine("M1")
        t0 = machine.now_s()
        run = PowerInstrumentedRun(machine)
        run.measure(lambda: machine.sleep(1e-4))
        # Warm-up fully elapsed on the virtual clock.
        assert machine.now_s() - t0 >= paper.POWERMETRICS_WARMUP_S

    def test_empty_workload_rejected(self):
        from repro.errors import ProtocolError

        machine = make_exact_machine("M1")
        run = PowerInstrumentedRun(machine)
        with pytest.raises(ProtocolError):
            run.measure(lambda: None)

    def test_output_file(self, tmp_path):
        machine = make_exact_machine("M1")
        path = tmp_path / "pm.txt"
        run = PowerInstrumentedRun(machine, output_path=path)
        run.measure(lambda: machine.sleep(0.1))
        assert "GPU Power:" in path.read_text()

    def test_measured_power_matches_calibrated_draw(self):
        """The parsed mW must equal the calibration targets (ramped)."""
        machine = make_model_machine("M4")
        impl = get_implementation("gpu-mps")
        problem = GemmProblem.generate(4096, fill_random=False)
        context = impl.prepare(machine, problem)
        measurement = measure_gemm_power(machine, impl, problem, context)
        draws = gemm_power_draws(machine.chip, "gpu-mps", 4096)
        expected_mw = (
            draws[PowerComponent.CPU] + draws[PowerComponent.GPU]
        ) * 1e3
        # Idle floors add a tiny offset; format rounds to 1 mW.
        assert measurement.combined_mw == pytest.approx(expected_mw, rel=0.02)

    def test_cpu_impl_reports_cpu_power_only(self):
        machine = make_model_machine("M2")
        impl = get_implementation("cpu-accelerate")
        problem = GemmProblem.generate(2048, fill_random=False)
        context = impl.prepare(machine, problem)
        measurement = measure_gemm_power(machine, impl, problem, context)
        idle_gpu_mw = machine.envelope.idle_watts(PowerComponent.GPU) * 1e3
        assert measurement.gpu_mw == pytest.approx(idle_gpu_mw, abs=1.0)
        assert measurement.cpu_mw > 1000.0


class TestMetrics:
    def _gemm(self, gflops=1000.0, n=4096):
        flop_count = paper.gemm_flop_count(n)
        elapsed_ns = int(flop_count / gflops)
        return GemmResult(
            "gpu-mps", "M1", n, flop_count, elapsed_ns=(elapsed_ns,)
        )

    def test_efficiency(self):
        gemm = self._gemm(gflops=1000.0)
        power = PowerMeasurement(cpu_mw=0.0, gpu_mw=5000.0, elapsed_ms=10.0)
        assert efficiency_gflops_per_w(gemm, power) == pytest.approx(200.0, rel=1e-3)

    def test_energy_to_solution(self):
        gemm = self._gemm(gflops=1000.0, n=4096)
        power = PowerMeasurement(cpu_mw=0.0, gpu_mw=5000.0, elapsed_ms=10.0)
        expected = 5.0 * gemm.best_elapsed_ns / 1e9
        assert energy_to_solution_j(gemm, power) == pytest.approx(expected)
