"""Hung cells: deadlines detect them; the retry ladder recovers them.

The ``hang`` fault sleeps inside the cell's execution path.  The sharded
backend, armed with ``cell_timeout``, fails every cell of a shard that runs
past ``cell_timeout`` x its cell count with ``CellTimeoutError`` and
abandons its pool; ``Session.run_batch`` retries them (the one-shot rule
does not re-fire on attempt 2).  In-parent backends simply ride the sleep
out.  Either way the run completes byte-identically.
"""

from chaoslib import grid, model_session

from repro.experiments import FaultPlan, RetryPolicy
from repro.experiments.backends import ShardedBackend


class TestHangRecovery:
    def test_hung_cell_is_detected_and_recovered(self, reference):
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "hang", [specs[0].spec_hash()], times=1, seconds=0.6
            )
        )
        envelopes = session.run_batch(
            specs,
            max_workers=2,
            retry=RetryPolicy(
                max_retries=1, backoff_base=0.001, cell_timeout=0.15
            ),
        )
        assert [e.to_json() for e in envelopes] == reference
        assert session.last_health.ok

    def test_sharded_timeout_is_counted(self, reference):
        # one cell per shard: the hung shard's deadline is 0.15 s, well
        # under the 0.6 s hang (4-cell shards would get exactly 0.6 s)
        specs = grid()
        session = model_session(
            fault_plan=FaultPlan.single(
                "hang", [specs[0].spec_hash()], times=1, seconds=0.6
            )
        )
        envelopes = session.run_batch(
            specs,
            backend=ShardedBackend(max_workers=2, shard_size=1),
            retry=RetryPolicy(
                max_retries=1, backoff_base=0.001, cell_timeout=0.15
            ),
        )
        assert [e.to_json() for e in envelopes] == reference
        health = session.last_health
        assert health.ok
        assert health.timeouts >= 1
        # the timed-out cell is retried on the sharded backend
        assert health.retries >= 1
