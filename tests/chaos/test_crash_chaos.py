"""Worker crashes: broken pools degrade to the in-process path and recover.

The ``crash`` fault ``os._exit``\\ s the executing *worker* process — and is
a deliberate no-op in the parent, which is exactly why the degradation
ladder's in-process rung genuinely recovers: the same cell, the same fault
plan, but no worker to kill.
"""

from chaoslib import grid, model_session

from repro.experiments import FaultPlan, RetryPolicy

FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.001)


class TestCrashRecovery:
    def test_persistent_crash_recovers_byte_identically(self, reference):
        # backend-agnostic: sharded loses the worker and redoes the shard
        # in the parent; in-parent backends never fire the rule
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "crash", [specs[2].spec_hash()], times=None
            )
        )
        envelopes = session.run_batch(specs, max_workers=2, retry=FAST_RETRY)
        assert [e.to_json() for e in envelopes] == reference
        assert session.last_health.ok

    def test_sharded_worker_crash_redoes_the_shard_in_parent(self, reference):
        from repro.experiments.backends import ShardedBackend

        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "crash", [specs[0].spec_hash()], times=None
            )
        )
        envelopes = session.run_batch(
            specs,
            backend=ShardedBackend(max_workers=2, shard_size=2),
            retry=FAST_RETRY,
        )
        assert [e.to_json() for e in envelopes] == reference
        health = session.last_health
        assert health.ok
        assert health.crashes >= 1
        assert health.fallbacks >= 1
