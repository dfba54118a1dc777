"""The section-4 experiment protocol, run through sessions."""

import pytest

from repro.calibration import paper
from repro.errors import UnsupportedProblemError
from repro.experiments import GemmSpec, PoweredGemmSpec, Session, StreamSpec, SweepSpec
from repro.experiments.executor import run_gemm_spec, run_stream_spec

from tests.conftest import make_study_machine


def model_session() -> Session:
    """Noise-free and model-only, like ``tests.conftest.make_model_machine``."""
    return Session(numerics="model-only", noise_sigma=0.0)


def gemm(session: Session, impl_key: str, n: int, *, chip: str = "M1", **kwargs):
    return session.run(GemmSpec(chip=chip, impl_key=impl_key, n=n, **kwargs)).result


def sweep(chip: str, impl_key: str, sizes, **kwargs) -> dict:
    """One Figure-2 line: the sizes the implementation supports, by size."""
    envelopes = model_session().run_batch(
        SweepSpec(
            kind="gemm", chips=(chip,), impl_keys=(impl_key,), sizes=sizes, **kwargs
        )
    )
    return {env.spec.n: env.result for env in envelopes}


class TestRunGemm:
    def test_five_repetitions_by_default(self):
        result = gemm(model_session(), "gpu-mps", 256)
        assert len(result.repetitions) == paper.GEMM_REPEATS

    def test_flop_count_formula(self):
        result = gemm(model_session(), "gpu-mps", 128)
        assert result.flop_count == 128 * 128 * 255

    def test_verification_runs_when_numerics_do(self):
        session = Session(numerics="full", noise_sigma=0.0)
        result = gemm(session, "cpu-accelerate", 64)
        assert result.verified is True

    def test_no_verification_in_model_only(self):
        result = gemm(model_session(), "cpu-accelerate", 64)
        assert result.verified is None

    def test_unsupported_size_raises(self):
        with pytest.raises(UnsupportedProblemError):
            gemm(model_session(), "cpu-single", 16384)

    def test_repeats_have_distinct_timings_with_noise(self):
        result = gemm(Session(), "gpu-mps", 2048, chip="M2")
        elapsed = sorted(r.elapsed_ns for r in result.repetitions)
        # one draw per repetition: every pair differs by more than the 1 ns
        # a shared draw's rounding on the advancing clock could explain
        assert all(b - a > 1 for a, b in zip(elapsed, elapsed[1:]))

    def test_seeded_runs_reproduce(self):
        r1 = gemm(Session(), "gpu-mps", 512, chip="M2", seed=11)
        r2 = gemm(Session(), "gpu-mps", 512, chip="M2", seed=11)
        assert [x.elapsed_ns for x in r1.repetitions] == [
            x.elapsed_ns for x in r2.repetitions
        ]


class TestSweep:
    def test_sweep_skips_excluded_sizes(self):
        line = sweep("M1", "cpu-omp", (512, 4096, 8192, 16384))
        assert set(line) == {512, 4096}

    def test_sweep_covers_all_sizes_for_gpu(self):
        line = sweep("M1", "gpu-mps", (32, 1024, 16384), repeats=2)
        assert set(line) == {32, 1024, 16384}

    def test_gflops_increase_with_size_for_gpu(self):
        line = sweep("M4", "gpu-mps", (32, 512, 4096, 16384), repeats=1)
        series = [line[n].best_gflops for n in (32, 512, 4096, 16384)]
        assert series == sorted(series)


class TestPoweredRuns:
    def powered(self, chip: str, impl_key: str, n: int, **kwargs):
        spec = PoweredGemmSpec(chip=chip, impl_key=impl_key, n=n, **kwargs)
        return model_session().run(spec).result

    def test_powered_gemm_returns_matched_measurements(self):
        powered = self.powered("M4", "gpu-mps", 2048, repeats=3)
        assert len(powered.measurements) == 3
        assert len(powered.gemm.repetitions) == 3

    def test_powered_efficiency_in_figure4_ballpark(self):
        powered = self.powered("M3", "gpu-mps", 16384, repeats=2)
        target = paper.FIG4_EFFICIENCY_GFLOPS_PER_W["gpu-mps"]["M3"]
        assert powered.efficiency_gflops_per_w == pytest.approx(target, rel=0.08)

    def test_powered_unsupported_size(self):
        with pytest.raises(UnsupportedProblemError):
            self.powered("M1", "cpu-omp", 16384)


class TestStreamDelegation:
    def test_run_stream(self):
        spec = StreamSpec(chip="M1", target="cpu", n_elements=1 << 14, repeats=2)
        assert model_session().run(spec).result.chip_name == "M1"

    def test_gpu_stream_after_other_work_equals_a_fresh_machine_run(self):
        # GPU dispatch noise keys come from the cell's lowering and GEMM
        # work draws other keys, so earlier work on the same machine cannot
        # shift their counters; only the later clock origin rounds the
        # windows differently
        machine = make_study_machine("M2")
        run_gemm_spec(machine, GemmSpec(chip="M2", impl_key="gpu-mps", n=256))
        spec = StreamSpec(chip="M2", target="gpu", n_elements=1 << 16, repeats=3)
        after_gemm = run_stream_spec(machine, spec)
        fresh = Session().run(spec).result
        assert after_gemm.kernels.keys() == fresh.kernels.keys()
        for kernel, result in fresh.kernels.items():
            assert after_gemm.kernels[kernel].bandwidths_gbs == pytest.approx(
                result.bandwidths_gbs, rel=1e-12
            )
