"""The sharded backend and the batch-execution contract fixes.

Covers the streaming execution path end to end: multi-shard byte-identity
against the serial reference (including scalar-fallback mixes inside
worker shards), a sweep streamed through the parent in one expansion
pass, ordered delivery, cache semantics, worker-crash propagation that
names the failing cell, the undelivered-cell guard in
``Session.run_batch``, and the lazy envelopes shards stream back.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import (
    BACKEND_NAMES,
    GemmSpec,
    Session,
    SweepSpec,
)
from repro.experiments.backends import (
    SerialBackend,
    ShardedBackend,
    resolve_backend,
)
from repro.experiments.envelope import ResultEnvelope
from repro.workloads import workload_kinds


def model_session(**kwargs) -> Session:
    return Session(numerics="model-only", **kwargs)


def small_sweep(kind: str) -> SweepSpec:
    """A multi-cell grid per kind, small enough for worker-pool tests."""
    if kind == "stream":
        return SweepSpec(kind="stream", chips=("M1", "M4"))
    return SweepSpec(kind=kind, chips=("M1", "M4"), numerics=None)


class TestShardedByteIdentity:
    def test_registered_in_backend_names(self):
        assert "sharded" in BACKEND_NAMES

    @pytest.mark.parametrize("kind", workload_kinds())
    @pytest.mark.parametrize("use_cache", (False, True))
    def test_multi_shard_grid_identical_to_serial(self, kind, use_cache):
        # shard_size 5 forces several shards per grid; every shard ships
        # plain-data cells, with and without the parent's cache in the loop
        sweep = SweepSpec(kind=kind, chips=("M1",), numerics="model-only")
        reference = [
            env.to_json() for env in model_session().run_batch(sweep, backend="serial")
        ]
        got = model_session().run_batch(
            sweep,
            backend=ShardedBackend(max_workers=2, shard_size=5),
            use_cache=use_cache,
        )
        assert [env.to_json() for env in got] == reference

    def test_fallback_mix_inside_shards(self):
        # sampled numerics: GEMM cells decline lowering and take the scalar
        # fallback *inside the worker*, next to cells that vectorize
        sweep = SweepSpec(
            kind="gemm",
            chips=("M1",),
            impl_keys=("cpu-single", "gpu-mps"),
            sizes=(32, 48),
        )
        session = Session(numerics="sampled")
        reference = [
            env.to_json() for env in session.run_batch(sweep, backend="serial")
        ]
        got = Session(numerics="sampled").run_batch(
            sweep, backend=ShardedBackend(max_workers=2, shard_size=3)
        )
        assert [env.to_json() for env in got] == reference

    def test_results_in_input_order(self):
        sweep = small_sweep("spmv")
        specs = list(sweep.expand())
        envs = model_session().run_batch(
            sweep, backend=ShardedBackend(max_workers=2, shard_size=3)
        )
        assert [e.spec for e in envs] == specs

    def test_envelopes_are_lazy_payload_wrappers(self):
        sweep = small_sweep("spmv")
        envs = model_session().run_batch(
            sweep,
            backend=ShardedBackend(max_workers=2, shard_size=3),
            use_cache=False,
        )
        assert all(type(env).__name__ == "_LazyEnvelope" for env in envs)
        assert all(isinstance(env, ResultEnvelope) for env in envs)


class TestShardedStreaming:
    @pytest.mark.parametrize("use_cache", (True, False))
    def test_chunked_mode_expands_each_cell_exactly_once(
        self, monkeypatch, use_cache
    ):
        # the parent streams the expansion shard-wise (cache keys, plain
        # data for the workers) — one pass, no re-expansion per shard
        from repro.workloads.spmv import SpmvSpec

        sweep = small_sweep("spmv")
        expected = len(sweep.expand())
        constructed = []
        original = SpmvSpec.__post_init__

        def counting(self):
            constructed.append(1)
            original(self)

        monkeypatch.setattr(SpmvSpec, "__post_init__", counting)
        envs = model_session().run_batch(
            sweep,
            backend=ShardedBackend(max_workers=2, shard_size=3),
            use_cache=use_cache,
        )
        assert len(envs) == expected
        assert len(constructed) == expected

    def test_progress_reports_unknown_total_as_negative(self):
        seen = []

        def progress(done, total, envelope):
            seen.append((done, total))

        sweep = small_sweep("spmv")
        model_session().run_batch(
            sweep,
            backend=ShardedBackend(max_workers=2, shard_size=3),
            use_cache=False,
            progress=progress,
        )
        assert [done for done, _ in seen] == list(range(1, len(seen) + 1))
        assert all(total == -1 for _, total in seen)


class TestShardedCaching:
    def test_populates_parent_cache(self):
        session = model_session()
        sweep = small_sweep("spmv")
        total = len(sweep.expand())
        session.run_batch(sweep, backend=ShardedBackend(2, shard_size=3))
        assert session.cache_info()["in_memory"] == total
        session.run_batch(sweep, backend=ShardedBackend(2, shard_size=3))
        assert session.cache_info()["hits"] == total

    def test_partial_hits_keep_grid_order(self):
        session = model_session()
        sweep = small_sweep("spmv")
        specs = list(sweep.expand())
        # warm every other cell so shards carry hit/miss mixes
        for spec in specs[::2]:
            session.run(spec)
        envs = session.run_batch(
            sweep, backend=ShardedBackend(2, shard_size=3)
        )
        assert [e.spec for e in envs] == specs

    def test_uncached_miss_counters_match_serial(self):
        sweep = small_sweep("spmv")
        counts = {}
        for backend in ("serial", ShardedBackend(2, shard_size=3)):
            session = model_session()
            session.run_batch(sweep, backend=backend, use_cache=False)
            counts[getattr(backend, "name", backend)] = session.cache_info()[
                "misses"
            ]
        assert counts["sharded"] == counts["serial"] == len(sweep.expand())

    def test_disk_cache_shared_with_serial(self, tmp_path):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256)
        first = model_session(cache_dir=tmp_path).run_batch(
            [spec], backend=ShardedBackend(2, shard_size=3)
        )[0]
        revived = model_session(cache_dir=tmp_path)
        second = revived.run_batch([spec], backend="serial")[0]
        assert second.to_json() == first.to_json()
        assert revived.cache_info()["misses"] == 0


class TestWorkerCrashPropagation:
    BAD = GemmSpec(chip="M1", impl_key="no-such-impl", n=64)
    GOOD = GemmSpec(chip="M1", impl_key="gpu-mps", n=64)

    def test_sharded_backend_names_the_failing_cell(self):
        # the failing shard degrades to an in-parent redo; the cell fails
        # there too (a bad spec, not a bad worker) and is named terminally
        with pytest.raises(SimulationError) as excinfo:
            model_session().run_batch(
                [self.GOOD, self.BAD],
                backend=ShardedBackend(max_workers=2, shard_size=1),
            )
        message = str(excinfo.value)
        assert "gemm" in message
        assert self.BAD.spec_hash() in message

    def test_sharded_uncached_sweep_failure_names_the_cells(self):
        # an unknown chip passes spec validation but dies in the worker
        sweep = SweepSpec(kind="spmv", chips=("NoSuchChip",))
        with pytest.raises(SimulationError) as excinfo:
            model_session().run_batch(
                sweep,
                backend=ShardedBackend(max_workers=2, shard_size=4),
                use_cache=False,
            )
        assert "cells failed" in str(excinfo.value)

    def test_sibling_cells_complete_despite_a_failure(self):
        session = model_session()
        health = session.run_batch(
            [self.GOOD, self.BAD],
            backend=ShardedBackend(max_workers=2, shard_size=1),
            on_error="collect",
        )
        report = session.last_health
        assert [f.spec_hash for f in report.failures] == [self.BAD.spec_hash()]
        good = model_session().run_batch([self.GOOD])
        assert health[0].to_json() == good[0].to_json()
        assert health[1] is None


class DroppingBackend(SerialBackend):
    """A buggy backend that silently skips one cell (for the guard test)."""

    name = "dropping"

    def __init__(self, drop_index: int) -> None:
        self.drop_index = drop_index

    def run(
        self,
        session,
        specs,
        finish,
        *,
        use_cache=True,
        fail=None,
        attempt=1,
        cell_timeout=None,
        health=None,
    ):
        for index, spec in enumerate(specs):
            if index != self.drop_index:
                finish(
                    index,
                    session.run(spec, use_cache=use_cache, attempt=attempt),
                )


class TestUndeliveredCellGuard:
    def test_dropped_cell_raises_with_spec_hash(self):
        sweep = small_sweep("spmv")
        specs = list(sweep.expand())
        with pytest.raises(ConfigurationError) as excinfo:
            model_session().run_batch(specs, backend=DroppingBackend(2))
        message = str(excinfo.value)
        assert "never delivered 1 of" in message
        assert specs[2].spec_hash() in message

    def test_complete_delivery_still_passes(self):
        specs = list(small_sweep("spmv").expand())
        envs = model_session().run_batch(specs, backend=DroppingBackend(-1))
        assert len(envs) == len(specs)


class TestShardedResolution:
    def test_name_resolves(self):
        resolved = resolve_backend("sharded", 3)
        assert isinstance(resolved, ShardedBackend)
        assert resolved.max_workers == 3

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend(2, shard_size=0)
        with pytest.raises(ConfigurationError):
            ShardedBackend(0)


class TestLazyEnvelope:
    def _envelope(self):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=64)
        return model_session().run(spec)

    @staticmethod
    def _lazy(payload):
        return ResultEnvelope.from_deferred(lambda: payload)

    def test_payload_round_trip_is_byte_identical(self):
        eager = self._envelope()
        lazy = self._lazy(eager.to_dict())
        assert lazy.to_json() == eager.to_json()

    def test_equality_crosses_laziness_both_ways(self):
        eager = self._envelope()
        lazy = self._lazy(eager.to_dict())
        assert lazy == eager
        assert eager == lazy

    def test_identity_fields_skip_rehydration(self):
        eager = self._envelope()
        lazy = self._lazy(eager.to_dict())
        assert lazy.kind == "gemm"
        assert lazy.spec_hash == eager.spec_hash
        assert "_spec_cache" not in lazy.__dict__  # nothing rehydrated yet
        assert lazy.spec == eager.spec  # ...until a field is actually read
        assert "_spec_cache" in lazy.__dict__

    def test_schema_check_still_applies(self):
        payload = self._envelope().to_dict()
        payload["schema"] = 99
        lazy = self._lazy(payload)  # nothing is decoded or checked yet
        with pytest.raises(ConfigurationError, match="unsupported envelope schema"):
            lazy.spec_hash
