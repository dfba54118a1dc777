"""The library surface the benchmark harness drives, held in the fast tier.

``perfbench/phases.py`` counts a pass's operations and replays a pass stage
by stage through the per-cell lowering view (``Workload.vectorized_body``,
``LoweredSequence``, ``evaluate_sequences``).  A contract change that
breaks that surface should fail here, not only in the benchmark's smoke
job.  ``perfbench/`` is put on ``sys.path`` and imported as it stands;
nothing in it is edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.experiments import Session, SweepSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """``(phases, spans)``, imported from the harness's own directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("phases"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def sweep(perfbench):
    """The ``spmv-r150`` grid's shape, at two sizes."""
    phases, _ = perfbench
    return SweepSpec(
        kind="spmv",
        chips=phases.CHIPS,
        targets=phases.TARGETS,
        sizes=(300, 301),
        repeats=phases.SPMV_REPEATS,
        numerics="model-only",
        seed=11,
    )


def test_count_ops_counts_every_repetition(perfbench, sweep):
    phases, _ = perfbench
    specs = sweep.expand()
    assert len(specs) == len(phases.CHIPS) * len(phases.TARGETS) * 2
    session = phases.SpmvWorkload.session()
    assert phases.count_ops(session, specs) == len(specs) * phases.SPMV_REPEATS


def test_replay_reproduces_the_vectorized_batch(perfbench, sweep):
    phases, spans = perfbench
    specs = sweep.expand()
    expected = [
        envelope.to_json()
        for envelope in Session(numerics="model-only").run_batch(
            specs, backend="vectorized"
        )
    ]
    tracer = spans.Tracer("spmv-r150")
    _, texts, counts = phases.replay_cells(tracer, phases.SpmvWorkload.session(), specs)
    assert texts == expected
    assert counts["lower.cells"] == len(specs)
    assert counts["lower.fallback_cells"] == 0
    assert counts["noise.draws"] == len(specs) * phases.SPMV_REPEATS
