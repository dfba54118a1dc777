"""The vectorized sweep fast path: ``vectorized ≡ serial``, byte for byte.

DESIGN.md §7's identity guarantee — the vectorized engine replicates the
scalar engine's arithmetic operation for operation, so batch evaluation is
an *optimisation*, never a different model.  This suite enforces the
guarantee at every persistence layer (envelope JSON, spec hashes, store
bytes), exercises the per-cell fallback for workloads without a
``vectorized_body``, and pins down the backend's cache/selection semantics.
"""

import dataclasses

import pytest

from repro.experiments import (
    ResultEnvelope,
    Session,
    SweepSpec,
    VectorizedBackend,
    load_envelopes,
    resolve_backend,
    run_with_manifest,
    save_envelopes,
)
from repro.experiments.specs import ExperimentSpec
from repro.workloads import (
    Workload,
    get_workload,
    register_workload,
    unregister_workload,
    workload_kinds,
)

#: One small sweep per registered kind — the acceptance grid shape.
ACCEPTANCE_SWEEPS = (
    SweepSpec(kind="gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256,)),
    SweepSpec(
        kind="powered-gemm",
        chips=("M1",),
        impl_keys=("gpu-mps",),
        sizes=(256,),
        repeats=2,
    ),
    SweepSpec(
        kind="stream",
        chips=("M1",),
        impl_keys=("gpu",),
        n_elements=1 << 14,
        repeats=2,
    ),
    SweepSpec(kind="spmv", chips=("M1", "M4"), impl_keys=("cpu", "gpu"), sizes=(4096,), repeats=3),
    SweepSpec(
        kind="stencil",
        chips=("M1", "M4"),
        impl_keys=("stencil-naive", "stencil-blocked"),
        sizes=(256,),
        repeats=3,
    ),
    SweepSpec(
        kind="batched-gemm",
        chips=("M1", "M4"),
        impl_keys=("gpu-batched", "gpu-looped"),
        sizes=(32,),
        repeats=3,
    ),
)


def model_session(**kwargs) -> Session:
    return Session(numerics="model-only", **kwargs)


def batch_json(specs, **kwargs) -> list[str]:
    return [env.to_json() for env in model_session().run_batch(specs, **kwargs)]


class TestByteIdentity:
    @pytest.mark.parametrize("kind", workload_kinds())
    def test_every_workload_sample_spec(self, kind):
        spec = get_workload(kind).sample_spec()
        assert batch_json([spec], backend="vectorized") == batch_json(
            [spec], backend="serial"
        )

    @pytest.mark.parametrize("kind", ("spmv", "stencil", "batched-gemm"))
    def test_fast_path_workload_variant_grids(self, kind):
        """Seeded random valid specs — wider than the curated samples.

        Restricted to the fast-path workloads: their variant grids are
        cheap to *execute* in model-only numerics, whereas the fallback
        workloads' variant sizes (GEMM up to n=16384) are meant only for
        codec round-trips.
        """
        workload = get_workload(kind)
        assert workload.vectorized_body is not None
        specs = [
            dataclasses.replace(spec, numerics="model-only")
            for spec in workload.sample_variants(20250729, 8)
        ]
        assert batch_json(specs, backend="vectorized") == batch_json(
            specs, backend="serial"
        )

    def test_acceptance_grid_all_kinds_mixed(self):
        assert {s.kind for s in ACCEPTANCE_SWEEPS} == set(workload_kinds())
        specs = [spec for sweep in ACCEPTANCE_SWEEPS for spec in sweep.expand()]
        vectorized = model_session().run_batch(specs, backend="vectorized")
        serial = model_session().run_batch(specs, backend="serial")
        assert [e.to_json() for e in vectorized] == [e.to_json() for e in serial]
        assert [e.spec_hash for e in vectorized] == [e.spec_hash for e in serial]
        assert [e.spec for e in vectorized] == specs  # input order preserved

    def test_sampled_numerics_and_custom_seed(self):
        specs = list(
            SweepSpec(kind="spmv", chips=("M2",), sizes=(1 << 14,), seed=11).expand()
        ) + list(
            SweepSpec(kind="stencil", chips=("M3",), sizes=(256,), seed=11).expand()
        )
        a = [
            e.to_json()
            for e in Session(numerics="sampled", seed=11).run_batch(
                specs, backend="serial"
            )
        ]
        b = [
            e.to_json()
            for e in Session(numerics="sampled", seed=11).run_batch(
                specs, backend="vectorized"
            )
        ]
        assert a == b

    def test_noise_disabled_sessions_match(self):
        specs = list(
            SweepSpec(kind="batched-gemm", chips=("M1",), sizes=(16, 32)).expand()
        )
        a = Session(numerics="model-only", noise_sigma=0.0).run_batch(
            specs, backend="serial"
        )
        b = Session(numerics="model-only", noise_sigma=0.0).run_batch(
            specs, backend="vectorized"
        )
        assert [e.to_json() for e in a] == [e.to_json() for e in b]

    def test_store_bytes_identical(self, tmp_path):
        """The on-disk store — the paper-trail artifact — matches byte for byte."""
        specs = [
            spec
            for kind in ("spmv", "stencil", "batched-gemm")
            for spec in SweepSpec(kind=kind, chips=("M1",)).expand()
        ]
        serial_dir, vector_dir = tmp_path / "serial", tmp_path / "vectorized"
        save_envelopes(
            serial_dir, model_session().run_batch(specs, backend="serial")
        )
        save_envelopes(
            vector_dir, model_session().run_batch(specs, backend="vectorized")
        )
        serial_files = sorted(p.relative_to(serial_dir) for p in serial_dir.rglob("*.json"))
        vector_files = sorted(p.relative_to(vector_dir) for p in vector_dir.rglob("*.json"))
        assert serial_files == vector_files and serial_files
        for rel in serial_files:
            assert (vector_dir / rel).read_bytes() == (serial_dir / rel).read_bytes()

    def test_manifest_run_store_identical(self, tmp_path):
        """run_with_manifest under the vectorized backend writes the same store."""
        specs = list(SweepSpec(kind="spmv", chips=("M1",), sizes=(4096,)).expand())
        a, _ = run_with_manifest(
            model_session(), specs, tmp_path / "serial", backend="serial"
        )
        b, _ = run_with_manifest(
            model_session(), specs, tmp_path / "vectorized", backend="vectorized"
        )
        assert [e.to_json() for e in a] == [e.to_json() for e in b]
        assert [e.to_json() for e in load_envelopes(tmp_path / "serial")] == [
            e.to_json() for e in load_envelopes(tmp_path / "vectorized")
        ]


# ---------------------------------------------------------------------------
# Fallback: a registry-injected workload without a vectorized body
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ScalarOnlySpec(ExperimentSpec):
    """A minimal spec for the fallback-path test."""

    n: int = 1

    kind = "scalar-only"


@dataclasses.dataclass(frozen=True)
class ScalarOnlyResult:
    """A minimal result record for the fallback-path test."""

    chip_name: str
    elapsed_ns: int


def _scalar_only_workload() -> Workload:
    """A workload that executes on the machine but declares no fast path."""

    def execute(machine, spec):
        from repro.sim.engine import EngineKind, Operation
        from repro.sim.roofline import OpCost

        completed = machine.execute(
            Operation(
                engine=EngineKind.CPU_SIMD,
                label=f"scalar-only/n={spec.n}",
                cost=OpCost(flops=float(spec.n) * 1e6),
                peak_flops=machine.peak_flops(EngineKind.CPU_SIMD),
                peak_bytes_per_s=machine.memory_bandwidth_bytes_per_s(),
                noise_key=f"scalar-only/{machine.chip.name}/n={spec.n}",
            )
        )
        return ScalarOnlyResult(
            chip_name=machine.chip.name,
            elapsed_ns=max(1, round(completed.elapsed_s * 1e9)),
        )

    return Workload(
        kind="scalar-only",
        display_name="Scalar only",
        description="fallback-path demonstration",
        spec_cls=ScalarOnlySpec,
        result_cls=ScalarOnlyResult,
        execute=execute,
        result_to_dict=lambda r: {
            "type": "scalar-only",
            "chip_name": r.chip_name,
            "elapsed_ns": r.elapsed_ns,
        },
        result_from_dict=lambda d: ScalarOnlyResult(
            chip_name=d["chip_name"], elapsed_ns=int(d["elapsed_ns"])
        ),
        sweep_cells=lambda sweep: tuple(
            ScalarOnlySpec(chip=chip, seed=sweep.seed, n=n)
            for chip in (sweep.chips or ("M1",))
            for n in (sweep.sizes or (1,))
        ),
        sample_spec=lambda: ScalarOnlySpec(chip="M1", n=3),
        cell_label=lambda spec: f"{spec.chip} scalar-only n={spec.n}",
        summary_line=lambda spec, result: f"{spec.chip} {result.elapsed_ns}ns",
    )


class TestFallback:
    @pytest.fixture()
    def scalar_only(self):
        workload = register_workload(_scalar_only_workload())
        yield workload
        unregister_workload("scalar-only")

    def test_workload_without_body_runs_and_matches_serial(self, scalar_only):
        assert scalar_only.vectorized_body is None
        specs = [ScalarOnlySpec(chip="M1", n=2), ScalarOnlySpec(chip="M4", n=5)]
        assert batch_json(specs, backend="vectorized") == batch_json(
            specs, backend="serial"
        )

    def test_mixed_batch_interleaves_fast_and_fallback_cells(self, scalar_only):
        specs = [
            ScalarOnlySpec(chip="M1", n=2),
            get_workload("spmv").sample_spec(),
            ScalarOnlySpec(chip="M4", n=5),
            get_workload("batched-gemm").sample_spec(),
        ]
        vectorized = model_session().run_batch(specs, backend="vectorized")
        serial = model_session().run_batch(specs, backend="serial")
        assert [e.to_json() for e in vectorized] == [e.to_json() for e in serial]
        assert [e.spec for e in vectorized] == specs


class TestBackendSemantics:
    def test_registered_name_resolves(self):
        assert isinstance(resolve_backend("vectorized", 4), VectorizedBackend)

    def test_cache_counters_match_serial(self):
        spec = get_workload("spmv").sample_spec()
        counts = {}
        for backend in ("serial", "vectorized"):
            session = model_session()
            session.run_batch([spec], backend=backend)
            session.run_batch([spec], backend=backend)
            counts[backend] = session.cache_info()
        assert counts["vectorized"] == counts["serial"]

    def test_uncached_execution_counts_misses(self):
        session = model_session()
        spec = get_workload("stencil").sample_spec()
        session.run_batch([spec], backend="vectorized", use_cache=False)
        assert session.cache_info() == {"hits": 0, "misses": 1, "in_memory": 0}

    def test_disk_cache_shared_with_serial(self, tmp_path):
        spec = get_workload("spmv").sample_spec()
        first = model_session(cache_dir=tmp_path).run_batch(
            [spec], backend="vectorized"
        )[0]
        revived = model_session(cache_dir=tmp_path)
        second = revived.run_batch([spec], backend="serial")[0]
        assert second.to_json() == first.to_json()
        assert revived.cache_info()["misses"] == 0

    def test_envelope_meta_matches_serial(self):
        """Provenance (cache key, fingerprint) is stamped exactly like serial."""
        spec = get_workload("batched-gemm").sample_spec()
        serial = model_session().run_batch([spec], backend="serial")[0]
        vectorized = model_session().run_batch([spec], backend="vectorized")[0]
        assert dict(vectorized.meta) == dict(serial.meta)

    @pytest.mark.parametrize("backend", ["vectorized", "sharded"])
    def test_envelope_meta_not_shared_across_cells(self, backend):
        """Mutating one envelope's meta must not leak into another's (the
        sharded parent stamps its deferred envelopes from one snapshot)."""
        specs = list(
            SweepSpec(kind="spmv", chips=("M1",), sizes=(4096,)).expand()
        )
        envs = model_session().run_batch(specs, backend=backend)
        assert len(envs) >= 2
        envs[0].meta["session"]["noise_sigma"] = "corrupted"
        envs[0].meta["session"]["numerics"]["policy"] = "corrupted"
        assert envs[1].meta["session"]["noise_sigma"] == 0.015
        assert envs[1].meta["session"]["numerics"]["policy"] == "model-only"

    def test_fallback_cells_finish_incrementally(self):
        """Slow scalar-fallback cells report completion per cell, so manifest
        checkpoints and progress stay incremental inside a vectorized batch."""
        workload = register_workload(_scalar_only_workload())
        try:
            specs = [
                get_workload("spmv").sample_spec(),
                ScalarOnlySpec(chip="M1", n=2),
                ScalarOnlySpec(chip="M4", n=5),
            ]
            seen = []
            session = model_session()
            session.run_batch(
                specs,
                backend="vectorized",
                progress=lambda done, total, env: seen.append((done, env.kind)),
            )
            # one progress tick per cell, fallback cells individually last
            assert [done for done, _ in seen] == [1, 2, 3]
            assert [kind for _, kind in seen[-2:]] == ["scalar-only"] * 2
        finally:
            unregister_workload("scalar-only")

    def test_cli_run_backend_vectorized(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "run",
                    "--kind",
                    "spmv",
                    "--chips",
                    "M1",
                    "--sizes",
                    "16384",
                    "--numerics",
                    "model-only",
                    "--backend",
                    "vectorized",
                    "--quiet",
                ]
            )
            == 0
        )
        vectorized_out = capsys.readouterr().out
        assert (
            main(
                [
                    "run",
                    "--kind",
                    "spmv",
                    "--chips",
                    "M1",
                    "--sizes",
                    "16384",
                    "--numerics",
                    "model-only",
                    "--backend",
                    "serial",
                    "--quiet",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == vectorized_out
