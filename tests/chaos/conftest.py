"""Chaos-suite fixtures: deterministic fault plans over a tiny grid.

Every test injects faults through :class:`repro.experiments.FaultPlan` —
seeded, content-addressed, reproducible — and asserts the recovery
contract: a recovered run is **byte-identical** to an undisturbed one, and
a cell that cannot be recovered surfaces as an exact, structured failure
without aborting its siblings.

The suite executes through whatever backend ``REPRO_BACKEND`` selects
(the chaos-smoke CI job runs the ``vectorized`` and ``sharded`` legs),
so the same fault classes exercise in-parent execution and the sharded
pool's failure reporting without per-backend test duplication; the crash
and hang tests also pin a
:class:`~repro.experiments.backends.ShardedBackend` so a real worker pool
is exercised on every leg.
"""

import pytest

from chaoslib import grid, model_session


@pytest.fixture(scope="session")
def reference() -> list:
    """The undisturbed serial run every recovery must reproduce exactly."""
    envelopes = model_session().run_batch(grid(), backend="serial")
    return [envelope.to_json() for envelope in envelopes]
