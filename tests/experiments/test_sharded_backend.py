"""The sharded backend and the batch-execution contract fixes.

Covers the streaming execution path end to end: multi-shard byte-identity
against the serial reference (including sampled-numerics GEMM cells,
whose verification check runs inside the worker), a sweep streamed
through the parent in one expansion pass, ordered delivery, cache
semantics, worker-crash propagation that names the failing cell, failure
reporting (a bad cell fails alone; a lost pool is replaced), the
undelivered-cell guard in ``Session.run_batch``, and the wire: workers
ship only result dicts, and the parent stamps deferred envelopes over them.
"""

import pickle

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationError,
    UnknownImplementationError,
)
from repro.experiments import (
    BACKEND_NAMES,
    FaultPlan,
    GemmSpec,
    RetryPolicy,
    Session,
    SweepSpec,
)
from repro.experiments import envelope as envelope_module
from repro.experiments.backends import (
    SerialBackend,
    ShardedBackend,
    _execute_shard_payload,
    _run_shard,
    _session_payload,
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

    def test_sampled_gemm_inside_shards(self):
        # sampled numerics: GEMM cells lower and run their memoized
        # verification check *inside the worker*
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

    def test_an_all_hit_rerun_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        session = model_session()
        sweep = SweepSpec(kind="spmv", chips=("M1",))
        first = session.run_batch(sweep, backend=ShardedBackend(2, shard_size=4))
        assert len(started) == 1
        again = session.run_batch(sweep, backend=ShardedBackend(2, shard_size=4))
        assert len(started) == 1
        assert [e.to_json() for e in again] == [e.to_json() for e in first]

    def test_an_all_hit_shard_before_a_miss_shard_keeps_grid_order(self):
        specs = list(SweepSpec(kind="spmv", chips=("M1",)).expand())
        session = model_session()
        session.run_batch(specs[:4], backend="vectorized")
        envs = session.run_batch(specs, backend=ShardedBackend(2, shard_size=4))
        assert session.cache_info()["hits"] == 4
        reference = model_session().run_batch(specs, backend="vectorized")
        assert [e.to_json() for e in envs] == [e.to_json() for e in reference]

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
        # the worker reports the cell (a bad spec, not a bad worker), which
        # is not retryable and is named terminally
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


class TestFailureReporting:
    """The backend reports failed cells; ``run_batch``'s ladder recovers them."""

    BAD = GemmSpec(chip="M1", impl_key="no-such-impl", n=64)

    def test_a_bad_cell_fails_alone_without_a_fallback(self):
        sweep = SweepSpec(
            kind="spmv",
            chips=("M1",),
            targets=("cpu",),
            sizes=tuple(range(256, 511)),
            repeats=150,
            numerics="model-only",
        )
        good = list(sweep.expand())
        assert len(good) == 255
        session = model_session()
        envelopes = session.run_batch(
            good + [self.BAD],
            backend=ShardedBackend(2, shard_size=256),
            on_error="collect",
        )
        health = session.last_health
        assert [(f.error, f.spec_hash) for f in health.failures] == [
            ("UnknownImplementationError", self.BAD.spec_hash())
        ]
        assert health.fallbacks == 0
        assert envelopes[-1] is None
        reference = model_session().run_batch(good, backend="vectorized")
        assert [e.to_json() for e in envelopes[:-1]] == [
            e.to_json() for e in reference
        ]

    def test_a_lost_pool_is_replaced_for_the_shards_after_it(self):
        specs = [
            GemmSpec(chip="M1", impl_key="gpu-mps", n=64 + 16 * i)
            for i in range(12)
        ]
        reference = model_session().run_batch(specs, backend="serial")
        session = model_session(
            fault_plan=FaultPlan.single("crash", [specs[0].spec_hash()], times=None)
        )
        backend = ShardedBackend(2, shard_size=1)
        envelopes = session.run_batch(
            specs, backend=backend, retry=RetryPolicy(max_retries=0)
        )
        assert [e.to_json() for e in envelopes] == [e.to_json() for e in reference]
        health = session.last_health
        assert health.ok and health.crashes >= 1
        # only the crashed pool's in-flight window reaches the in-process rung
        assert 1 <= health.fallbacks <= backend.max_workers + 2

    def test_without_a_failure_channel_the_first_error_is_raised(self):
        finished = []
        with pytest.raises(UnknownImplementationError):
            ShardedBackend(2, shard_size=1).run(
                model_session(),
                [GemmSpec(chip="M1", impl_key="gpu-mps", n=64), self.BAD],
                lambda index, envelope: finished.append(index),
            )
        assert finished == [0]


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


def shard_of(sweep: SweepSpec) -> dict:
    """A worker's shard payload for every cell of ``sweep``."""
    return {"specs": [spec.to_dict() for spec in sweep.expand()], "label": "test"}


def columns_of(item: dict) -> list:
    """The ``elapsed_ns`` columns of one result dict (powered GEMM nests one)."""
    nested = (item, item.get("gemm", {}))
    return [data["elapsed_ns"] for data in nested if "elapsed_ns" in data]


class TestShardWire:
    """Workers ship result dicts only; the parent stamps deferred envelopes."""

    @pytest.mark.parametrize("kind", workload_kinds())
    def test_a_shard_blob_holds_one_result_dict_per_cell(self, kind):
        sweep = small_sweep(kind)
        session = model_session()
        blob, failures = _execute_shard_payload(
            shard_of(sweep), _session_payload(session)
        )
        assert failures == {}
        items = pickle.loads(blob)
        reference = session.run_batch(sweep, backend="vectorized")
        assert items == [env.to_dict()["result"] for env in reference]
        for item in items:
            assert item["type"] == kind
            assert not {"spec", "meta", "schema", "repetitions"} & set(item)
            for column in columns_of(item):
                assert column and all(type(ns) is int for ns in column)
        if kind != "stream":
            assert all(columns_of(item) for item in items)

    def test_workers_build_no_envelope_and_no_cache_key(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a worker must not stamp envelopes")

        monkeypatch.setattr(Session, "cache_key", forbidden)
        monkeypatch.setattr(ResultEnvelope, "create", classmethod(forbidden))
        items, failures = _run_shard(
            shard_of(small_sweep("spmv")), _session_payload(model_session()), 1
        )
        assert failures == {}
        assert items and all(item["type"] == "spmv" for item in items)

    @staticmethod
    def sharded(sweep, **kwargs):
        return model_session().run_batch(
            sweep, backend=ShardedBackend(max_workers=2, shard_size=3), **kwargs
        )

    @pytest.fixture()
    def decoded(self, monkeypatch):
        """Every result dict the envelope codec decodes, in order."""
        calls = []
        decode = envelope_module.result_from_dict
        monkeypatch.setattr(
            envelope_module,
            "result_from_dict",
            lambda data: calls.append(data) or decode(data),
        )
        return calls

    def test_identity_fields_do_not_decode_the_blob(self, decoded):
        sweep = small_sweep("spmv")
        specs = list(sweep.expand())
        hashes = [spec.spec_hash() for spec in specs]
        envs = self.sharded(sweep, use_cache=False)
        assert [env.spec for env in envs] == specs
        assert [env.kind for env in envs] == ["spmv"] * len(specs)
        assert [env.spec_hash for env in envs] == hashes
        assert [env.meta["spec_hash"] for env in envs] == hashes
        assert all(env._results._items is None for env in envs)  # still pickled
        assert decoded == []
        assert envs[0].result.n == specs[0].n  # ...until a result is read
        assert len(decoded) == 1
        assert envs[0]._results._items is not None

    @pytest.mark.parametrize("kind", workload_kinds())
    def test_to_json_equals_vectorized_before_and_after_result(self, kind, decoded):
        sweep = small_sweep(kind)
        vectorized = model_session().run_batch(sweep, backend="vectorized")
        reference = [env.to_json() for env in vectorized]
        envs = self.sharded(sweep)
        assert [env.to_json() for env in envs] == reference
        assert decoded == []  # served from the raw result dicts
        assert [env.result for env in envs] == [env.result for env in vectorized]
        assert len(decoded) == len(envs)
        assert [env.to_json() for env in envs] == reference
        assert envs == vectorized and vectorized == envs
