"""Session semantics: purity, caching, batching, and executor equivalence."""

import pytest

from repro.errors import ConfigurationError, UnsupportedProblemError
from repro.experiments import (
    GemmSpec,
    PoweredGemmSpec,
    Session,
    StreamSpec,
    SweepSpec,
)
from repro.experiments.executor import run_gemm_spec, run_stream_spec
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig


def model_session(**kwargs) -> Session:
    return Session(numerics="model-only", **kwargs)


SWEEP = SweepSpec(
    kind="gemm",
    chips=("M1", "M4"),
    impl_keys=("gpu-mps", "cpu-accelerate", "cpu-single"),
    sizes=(256, 2048, 16384),
)


class TestRun:
    def test_returns_envelope_with_result(self):
        env = model_session().run(GemmSpec(chip="M1", impl_key="gpu-mps", n=256))
        assert env.kind == "gemm"
        assert env.result.best_gflops > 0

    def test_execution_is_pure_per_spec(self):
        spec = GemmSpec(chip="M2", impl_key="gpu-mps", n=2048)
        a = model_session().run(spec).result
        b = model_session().run(spec).result
        assert a == b

    def test_seed_changes_results(self):
        a = model_session().run(
            GemmSpec(chip="M2", impl_key="gpu-mps", n=2048, seed=1)
        )
        b = model_session().run(
            GemmSpec(chip="M2", impl_key="gpu-mps", n=2048, seed=2)
        )
        assert a.result != b.result

    def test_unsupported_cell_raises(self):
        with pytest.raises(UnsupportedProblemError):
            model_session().run(GemmSpec(chip="M1", impl_key="cpu-single", n=16384))

    def test_spec_numerics_overrides_session_profile(self):
        spec = GemmSpec(chip="M1", impl_key="cpu-accelerate", n=64, numerics="full")
        env = model_session().run(spec)
        assert env.result.verified is True  # full numerics ran despite model-only

    def test_stream_spec(self):
        env = model_session().run(
            StreamSpec(chip="M1", target="cpu", n_elements=1 << 14, repeats=2)
        )
        assert env.result.chip_name == "M1"
        assert float(env.result.max_gbs) > 0

    def test_powered_spec(self):
        env = model_session().run(
            PoweredGemmSpec(chip="M4", impl_key="gpu-mps", n=2048, repeats=2)
        )
        assert env.result.efficiency_gflops_per_w > 0


class TestCaching:
    def test_memory_cache_hit(self):
        session = model_session()
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        first = session.run(spec)
        second = session.run(spec)
        assert second is first
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_disk_cache_survives_sessions(self, tmp_path):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        first = model_session(cache_dir=tmp_path).run(spec)
        revived = model_session(cache_dir=tmp_path)
        second = revived.run(spec)
        assert second.result == first.result
        assert revived.cache_info()["misses"] == 0

    def test_fingerprint_partitions_cache(self, tmp_path):
        spec = GemmSpec(chip="M1", impl_key="cpu-accelerate", n=64)
        fast = model_session(cache_dir=tmp_path)
        full = Session(numerics="full", cache_dir=tmp_path)
        assert fast.cache_key(spec) != full.cache_key(spec)
        fast.run(spec)
        env = full.run(spec)  # must execute, not reuse the model-only result
        assert env.result.verified is True

    def test_corrupt_disk_cache_file_is_a_clean_error(self, tmp_path):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        session = model_session(cache_dir=tmp_path)
        session.run(spec)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text(victim.read_text()[:25])  # truncate mid-object
        with pytest.raises(ConfigurationError) as excinfo:
            model_session(cache_dir=tmp_path).run(spec)
        assert str(victim) in str(excinfo.value)

    def test_use_cache_false_bypasses(self):
        session = model_session()
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        a = session.run(spec, use_cache=False)
        b = session.run(spec, use_cache=False)
        assert a is not b and a.result == b.result

    def test_clear_cache(self):
        session = model_session()
        session.run(GemmSpec(chip="M1", impl_key="gpu-mps", n=256))
        session.clear_cache()
        assert session.cache_info()["in_memory"] == 0


class TestBatch:
    def test_parallel_equals_sequential(self):
        seq = model_session().run_batch(SWEEP, max_workers=1)
        par = model_session().run_batch(SWEEP, max_workers=4)
        assert [e.spec for e in seq] == [e.spec for e in par]
        assert [e.result for e in seq] == [e.result for e in par]

    def test_results_in_input_order(self):
        specs = list(SWEEP.expand())
        envs = model_session().run_batch(specs, max_workers=4)
        assert [e.spec for e in envs] == specs

    def test_progress_callback_counts_up(self):
        # a materialized batch: a SweepSpec on 2 workers streams through
        # sharded, whose total is unknown (-1) until the stream ends
        seen = []
        specs = SWEEP.expand()
        model_session().run_batch(
            specs,
            max_workers=2,
            progress=lambda done, total, env: seen.append((done, total)),
        )
        total = len(specs)
        assert seen == [(i, total) for i in range(1, total + 1)]

    def test_batch_populates_cache(self):
        session = model_session()
        session.run_batch(SWEEP, max_workers=2)
        assert session.cache_info()["in_memory"] == len(SWEEP.expand())
        again = session.run_batch(SWEEP, max_workers=2)
        assert session.cache_info()["hits"] == len(again)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            model_session().run_batch(SWEEP, max_workers=0)

    def test_mixed_kind_batch_parallel_equals_sequential(self):
        specs = [
            GemmSpec(chip="M1", impl_key="gpu-mps", n=2048),
            StreamSpec(chip="M2", target="cpu", n_elements=1 << 14, repeats=2),
            StreamSpec(chip="M2", target="gpu", n_elements=1 << 16, repeats=2),
            PoweredGemmSpec(chip="M4", impl_key="cpu-accelerate", n=4096),
            GemmSpec(chip="M3", impl_key="gpu-cutlass", n=1024, seed=9),
        ]
        seq = model_session().run_batch(specs, max_workers=1)
        par = model_session().run_batch(specs, max_workers=4)
        assert [e.result for e in seq] == [e.result for e in par]


class TestExecutorEquivalence:
    def test_session_matches_the_executor_on_a_fresh_machine(self):
        """One spec through the session == the spec executor on a fresh
        machine with the same configuration."""
        spec = GemmSpec(chip="M3", impl_key="gpu-mps", n=2048, seed=5)
        env = model_session().run(spec)
        machine = Machine.for_chip(
            "M3", seed=5, numerics=NumericsConfig.model_only()
        )
        assert run_gemm_spec(machine, spec) == env.result

    def test_stream_matches_the_executor(self):
        spec = StreamSpec(chip="M2", target="gpu", n_elements=1 << 16, repeats=2)
        env = model_session().run(spec)
        machine = Machine.for_chip("M2", numerics=NumericsConfig.model_only())
        assert run_stream_spec(machine, spec) == env.result


class TestMachineFactory:
    def test_custom_factory_used(self):
        calls = []

        def factory(chip, seed, numerics):
            calls.append((chip, seed))
            return Machine.for_chip("M1", seed=seed, numerics=numerics)

        session = Session(numerics="model-only", machine_factory=factory)
        env = session.run(GemmSpec(chip="anything", impl_key="gpu-mps", n=256))
        assert calls == [("anything", 0)]
        assert env.result.chip_name == "M1"
