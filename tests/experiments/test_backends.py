"""Cross-backend determinism: serial == vectorized == sharded, byte for byte.

DESIGN.md §2's purity property — every cell is a pure function of (spec,
session fingerprint) — is what makes parallel execution sound.  This suite
turns it into an enforced invariant: for every registered workload and
every execution backend, the envelope JSON must be *byte-identical* to the
serial reference.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    BACKEND_NAMES,
    GemmSpec,
    SerialBackend,
    Session,
    StreamSpec,
    SweepSpec,
    VectorizedBackend,
    resolve_backend,
)
from repro.experiments.backends import ShardedBackend
from repro.sim.machine import Machine
from repro.workloads import get_workload, workload_kinds

pytestmark = []

PARALLEL_BACKENDS = tuple(n for n in BACKEND_NAMES if n != "serial")


def model_session(**kwargs) -> Session:
    return Session(numerics="model-only", **kwargs)


def batch_json(specs, **kwargs) -> list[str]:
    """Envelope JSON of one fresh-session batch run."""
    return [
        env.to_json()
        for env in model_session().run_batch(specs, **kwargs)
    ]


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("kind", workload_kinds())
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_every_workload_bit_identical_to_serial(self, kind, backend):
        spec = get_workload(kind).sample_spec()
        reference = batch_json([spec], backend="serial")
        assert batch_json([spec], backend=backend, max_workers=2) == reference

    def test_mixed_kind_batch_across_all_backends(self):
        specs = [get_workload(kind).sample_spec() for kind in workload_kinds()]
        reference = batch_json(specs, backend="serial")
        for backend in PARALLEL_BACKENDS:
            assert batch_json(specs, backend=backend, max_workers=4) == reference

    @pytest.mark.parametrize("workers", [1, 4])
    def test_default_backend_bit_identical_to_serial(self, monkeypatch, workers):
        # no backend named: vectorized at one worker, sharded above
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        specs = [get_workload(kind).sample_spec() for kind in workload_kinds()]
        reference = batch_json(specs, backend="serial")
        assert batch_json(specs, max_workers=workers) == reference

    def test_all_six_workload_sweeps_serial_vs_sharded(self):
        """The acceptance grid: one sweep per registered kind, both backends."""
        sweeps = [
            SweepSpec(kind="gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256,)),
            SweepSpec(kind="powered-gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256,), repeats=2),
            SweepSpec(kind="stream", chips=("M1",), impl_keys=("gpu",), n_elements=1 << 14, repeats=2),
            SweepSpec(kind="spmv", chips=("M1",), impl_keys=("cpu",), sizes=(4096,), repeats=2),
            SweepSpec(kind="stencil", chips=("M1",), impl_keys=("stencil-blocked",), sizes=(256,), repeats=2),
            SweepSpec(kind="batched-gemm", chips=("M1",), impl_keys=("gpu-batched",), sizes=(32,), repeats=2),
        ]
        assert {s.kind for s in sweeps} == set(workload_kinds())
        specs = [spec for sweep in sweeps for spec in sweep.expand()]
        assert batch_json(specs, backend="sharded", max_workers=2) == batch_json(
            specs, backend="serial"
        )


def factory_session() -> Session:
    return Session(
        numerics="model-only",
        machine_factory=lambda chip, seed, numerics: Machine.for_chip(
            "M1", seed=seed, numerics=numerics
        ),
    )


class TestBackendResolution:
    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(resolve_backend(None, 1), VectorizedBackend)
        sharded = resolve_backend(None, 4)
        assert isinstance(sharded, ShardedBackend)
        assert sharded.max_workers == 4

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial", 4), SerialBackend)
        assert isinstance(resolve_backend("vectorized", 4), VectorizedBackend)
        assert isinstance(resolve_backend("sharded", 4), ShardedBackend)

    def test_instance_passes_through(self):
        backend = ShardedBackend(2)
        assert resolve_backend(backend, 8) is backend

    @pytest.mark.parametrize("name", ["fibers", "threads", "processes"])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            resolve_backend(name, 4)

    @pytest.mark.parametrize("name", ["proceses", "threads", "processes"])
    def test_unknown_env_value_names_the_variable(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(ConfigurationError, match=r"\$REPRO_BACKEND"):
            resolve_backend(None, 4)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_env_serial_is_honoured(self, monkeypatch, workers):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert isinstance(resolve_backend(None, workers), SerialBackend)

    def test_env_var_is_soft_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        assert isinstance(resolve_backend(None, 1), ShardedBackend)
        # explicit argument wins over the environment
        assert isinstance(resolve_backend("serial", 4), SerialBackend)

    @pytest.mark.parametrize("env", [None, "vectorized", "sharded"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_machine_factory_session_resolves_to_serial(
        self, monkeypatch, env, workers
    ):
        if env is None:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_BACKEND", env)
        session = factory_session()
        resolved = resolve_backend(None, workers, session=session)
        assert isinstance(resolved, SerialBackend)
        # ...and the batch actually executes instead of raising
        envelope = session.run_batch(
            [GemmSpec(chip="M1", impl_key="gpu-mps", n=256)],
            max_workers=workers,
        )[0]
        assert envelope.result.best_gflops > 0

    @pytest.mark.parametrize(
        "batch",
        [
            [GemmSpec(chip="M1", impl_key="gpu-mps", n=256)],
            # a SweepSpec reaches ShardedBackend.run as a lazy stream
            SweepSpec(kind="spmv", chips=("M1", "M4")),
        ],
        ids=["spec-list", "sweep"],
    )
    @pytest.mark.parametrize("backend", ["vectorized", "sharded"])
    def test_explicit_request_on_machine_factory_session_raises(
        self, backend, batch
    ):
        with pytest.raises(ConfigurationError, match="machine_factory"):
            factory_session().run_batch(batch, backend=backend)

    def test_env_var_drives_run_batch(self, monkeypatch):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = model_session().run_batch([spec])[0].to_json()
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        assert model_session().run_batch([spec])[0].to_json() == reference

    def test_session_level_backend_default(self):
        session = model_session(backend="serial")
        spec = StreamSpec(chip="M1", target="gpu", n_elements=1 << 14, repeats=2)
        envs = session.run_batch([spec], max_workers=8)
        assert len(envs) == 1
