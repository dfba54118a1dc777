"""Cross-backend determinism: serial == vectorized == sharded, byte for byte.

DESIGN.md §2's purity property — every cell is a pure function of (spec,
session fingerprint) — is what makes parallel execution sound.  This suite
turns it into an enforced invariant: for every registered workload and
every execution backend, the envelope JSON must be *byte-identical* to the
serial reference.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError, SimulationError
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
from repro.experiments.specs import ExperimentSpec
from repro.sim.engine import EngineKind, Operation
from repro.sim.machine import Machine
from repro.sim.roofline import OpCost
from repro.sim.vectorized import LoweredGroup, run_lowered_sequence
from repro.workloads import (
    Workload,
    get_workload,
    register_workload,
    unregister_workload,
    workload_kinds,
)
from repro.workloads.base import lowered_cell, rounded_elapsed_ns

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

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_verify_under_model_only_fails_only_its_cell(self, backend):
        # nothing to verify when numerics never run: the lowering raises,
        # and every backend reports that per cell
        good = GemmSpec(chip="M1", impl_key="gpu-mps", n=256, repeats=2)
        bad = GemmSpec(
            chip="M1", impl_key="gpu-mps", n=256, repeats=2, verify=True
        )
        session = model_session()
        envelopes = session.run_batch(
            [good, bad], backend=backend, max_workers=2, on_error="collect"
        )
        assert envelopes[1] is None
        assert envelopes[0].to_json() == batch_json([good], backend="serial")[0]
        [failure] = session.last_health.failures
        assert (failure.spec_hash, failure.error) == (
            bad.spec_hash(),
            "ValidationError",
        )


@dataclasses.dataclass(frozen=True)
class OverEfficientSpec(ExperimentSpec):
    """A plugin cell whose lowering claims 150 % compute efficiency."""

    n: int = 1

    kind = "over-efficient"


@dataclasses.dataclass(frozen=True)
class OverEfficientResult:
    chip_name: str
    elapsed_ns: tuple[int, ...]


def _lower_over_efficient(machine, specs):
    return LoweredGroup(
        seeds=[spec.seed for spec in specs],
        thermal=machine.thermal,
        ops=[
            (
                Operation(
                    engine=EngineKind.CPU_SIMD,
                    label="over-efficient",
                    cost=OpCost(flops=1e9 * spec.n),
                    peak_flops=machine.peak_flops(EngineKind.CPU_SIMD),
                    peak_bytes_per_s=machine.memory_bandwidth_bytes_per_s(),
                    compute_efficiency=1.5,
                    noise_key=f"over-efficient/{machine.chip.name}/n={spec.n}",
                ),
            )
            * 3
            for spec in specs
        ],
        length=3,
        assemble=lambda starts, ends: [
            OverEfficientResult(machine.chip.name, elapsed_ns)
            for elapsed_ns in rounded_elapsed_ns(starts, ends)
        ],
    )


@pytest.fixture()
def over_efficient():
    workload = register_workload(
        Workload(
            kind="over-efficient",
            display_name="Over-efficient",
            description="a plugin whose every cell fails roofline validation",
            spec_cls=OverEfficientSpec,
            result_cls=OverEfficientResult,
            execute=lambda machine, spec: run_lowered_sequence(
                machine, lowered_cell(_lower_over_efficient, machine, spec)
            ),
            result_to_dict=lambda r: {
                "type": "over-efficient",
                "chip_name": r.chip_name,
                "elapsed_ns": list(r.elapsed_ns),
            },
            result_from_dict=lambda d: OverEfficientResult(
                d["chip_name"], tuple(d["elapsed_ns"])
            ),
            sweep_cells=lambda sweep: (),
            sample_spec=lambda: OverEfficientSpec(chip="M1"),
            cell_label=lambda spec: f"{spec.chip} over-efficient",
            summary_line=lambda spec, result: spec.chip,
            lower_group=_lower_over_efficient,
        )
    )
    yield workload
    unregister_workload(workload.kind)


class TestOneBadCellInABulkGroup:
    """A cell whose lowering fails bulk validation fails alone: its batch
    neighbours, evaluated in the same bulk call, still deliver their
    serial bytes on every backend."""

    @pytest.mark.parametrize("neighbour", ["gemm", "spmv"])
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_only_the_bad_cell_fails(self, over_efficient, backend, neighbour):
        good = get_workload(neighbour).sample_spec()
        bad = OverEfficientSpec(chip="M1")
        session = model_session()
        envelopes = session.run_batch(
            [bad, good], backend=backend, max_workers=2, on_error="collect"
        )
        assert envelopes[0] is None
        assert envelopes[1].to_json() == batch_json([good], backend="serial")[0]
        [failure] = session.last_health.failures
        assert (failure.spec_hash, failure.error) == (
            bad.spec_hash(),
            "ConfigurationError",
        )

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_a_bad_cell_beside_a_256_cell_spmv_group_fails_alone(
        self, over_efficient, backend
    ):
        # one bulk call evaluates both groups; when it raises, the SpMV
        # group is evaluated again on its own and keeps its serial bytes
        spmv = SweepSpec(
            kind="spmv",
            chips=("M1",),
            targets=("cpu",),
            sizes=tuple(range(1000, 1256)),
            repeats=3,
        ).expand()
        bad = OverEfficientSpec(chip="M1")
        session = model_session()
        envelopes = session.run_batch(
            [*spmv[:128], bad, *spmv[128:]],
            backend=backend,
            max_workers=2,
            on_error="collect",
        )
        assert envelopes[128] is None
        delivered = envelopes[:128] + envelopes[129:]
        assert [e.to_json() for e in delivered] == batch_json(spmv, backend="serial")
        [failure] = session.last_health.failures
        assert (failure.spec_hash, failure.error) == (
            bad.spec_hash(),
            "ConfigurationError",
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_raising_batch_names_only_the_bad_cell(self, over_efficient, backend):
        good = get_workload("gemm").sample_spec()
        with pytest.raises(
            SimulationError, match="1 of 2 cells failed.*compute efficiency"
        ):
            model_session().run_batch(
                [good, OverEfficientSpec(chip="M1")], backend=backend, max_workers=2
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
