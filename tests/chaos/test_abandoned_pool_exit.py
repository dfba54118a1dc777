"""A hung worker must not keep the process alive after its batch returns.

The sharded backend abandons a pool whose shard ran past its deadline.
``concurrent.futures`` joins every worker a pool started when the
interpreter exits, so the abandoned pool's hung worker has to be
terminated, or a run whose batch already returned would wait for the
worker's sleep to end before exiting.  The run happens in a subprocess in
its own session, so a worker that outlives a failing run is killed with
its process group.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

CHAOS_DIR = Path(__file__).resolve().parent
SRC = Path(repro.__file__).resolve().parent.parent

#: Exit deadline of the run (s): far below the hang, far above the run.
EXIT_WITHIN_S = 20.0

HUNG_RUN = textwrap.dedent(
    """
    import json

    from chaoslib import grid, model_session

    from repro.experiments import FaultPlan, RetryPolicy
    from repro.experiments.backends import ShardedBackend

    specs = grid()
    session = model_session(
        fault_plan=FaultPlan.single(
            "hang", [specs[0].spec_hash()], times=1, seconds=120.0
        )
    )
    envelopes = session.run_batch(
        specs,
        backend=ShardedBackend(2, shard_size=1),
        retry=RetryPolicy(max_retries=1, backoff_base=0.001, cell_timeout=0.1),
    )
    print(json.dumps([envelope.to_json() for envelope in envelopes]))
    """
)


def test_a_hung_worker_does_not_delay_exit(reference):
    path = os.pathsep.join(
        [str(CHAOS_DIR), str(SRC), os.environ.get("PYTHONPATH", "")]
    )
    run = subprocess.Popen(
        [sys.executable, "-c", HUNG_RUN],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        start_new_session=True,
    )
    try:
        out, err = run.communicate(timeout=EXIT_WITHIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        pytest.fail(f"the run did not exit within {EXIT_WITHIN_S:g} s")
    assert run.returncode == 0, err
    assert json.loads(out.splitlines()[-1]) == reference
