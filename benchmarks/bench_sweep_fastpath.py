"""The sweep fast path: CI's two speed gates on one shared grid.

The paper's figures are sweeps — STREAM thread counts x repetitions, GEMM
sizes x repetitions x implementations — so batch throughput, not single-cell
latency, is the number that decides whether million-cell campaigns are
feasible.  This bench drives a mixed-kind grid (:func:`fastpath_grid`)
through the execution backends, asserts the vectorized engine's
byte-identity guarantee on a subsample, and gates two ratios: vectorized
must beat the serial reference by a wide margin, and sharded must not fall
below in-process vectorized.  The end-to-end benchmark, with per-layer
timings, is ``perfbench/run.py``.
"""

import statistics
import time

from benchmarks.conftest import model_session
from repro.experiments import SweepSpec
from repro.experiments.backends import ShardedBackend

#: The three fast-path workloads span the roofline: memory-bound,
#: mid-intensity, overhead-bound.
FASTPATH_KINDS = ("spmv", "stencil", "batched-gemm")


def fastpath_grid(cells: int = 1000) -> list:
    """A deterministic mixed-kind grid of exactly ``cells`` specs.

    Seeds rotate so every cell is a distinct spec (no cache hits), and the
    three workload kinds interleave with their default chip/variant/size
    sweeps — the shape a real campaign has.
    """
    specs = []
    seed = 0
    while len(specs) < cells:
        for kind in FASTPATH_KINDS:
            specs.extend(SweepSpec(kind=kind, seed=seed).expand())
        seed += 1
    return specs[:cells]


def cells_per_second(backend, specs, *, workers: int = 4) -> float:
    """Throughput of one uncached batch run under ``backend``."""
    session = model_session()
    start = time.perf_counter()
    envelopes = session.run_batch(specs, backend=backend, max_workers=workers)
    elapsed = time.perf_counter() - start
    assert len(envelopes) == len(specs)
    return len(specs) / elapsed


def grid_identity_holds(specs) -> bool:
    """Whether the fast path is byte-identical to serial on ``specs``."""
    serial = model_session().run_batch(specs, backend="serial")
    vectorized = model_session().run_batch(specs, backend="vectorized")
    return [e.to_json() for e in serial] == [e.to_json() for e in vectorized]


def test_vectorized_identity_on_grid_subsample():
    """Spot-check the benchmark grid itself: vectorized ≡ serial."""
    assert grid_identity_holds(fastpath_grid(60))


def test_vectorized_is_much_faster_than_serial():
    """The acceptance ratio, on a smaller grid so the suite stays fast."""
    specs = fastpath_grid(250)
    serial = cells_per_second("serial", specs)
    vectorized = cells_per_second("vectorized", specs)
    ratio = vectorized / serial
    print(
        f"\nserial {serial:,.0f} cells/s -> vectorized {vectorized:,.0f} "
        f"cells/s ({ratio:.1f}x)"
    )
    assert ratio >= 5.0  # the 1k-cell acceptance run (BENCH_PR4.json) sees >=10x


def test_sharded_keeps_up_with_vectorized():
    """Sharded at 4 workers must not drop below one-core vectorized.

    A 6000-cell grid cut into 400-cell shards gives the pool real
    parallelism to amortize worker startup; the 4096-cell default shard
    would put most of the grid in one worker.  An untimed vectorized pass
    first memoizes every spec's serialization, so both timed runs see the
    same warm grid instead of vectorized paying that one-time cost alone.
    One run of either backend takes well under a second, and single runs
    of the same backend vary by more than half on a small host, so the
    gate is the median ratio of three alternating (vectorized, sharded)
    pairs.
    """
    specs = fastpath_grid(6000)
    cells_per_second("vectorized", specs)
    ratios = []
    for _ in range(3):
        vectorized = cells_per_second("vectorized", specs)
        sharded = cells_per_second(ShardedBackend(4, shard_size=400), specs)
        ratios.append(sharded / vectorized)
        print(
            f"\nvectorized {vectorized:,.0f} cells/s -> sharded {sharded:,.0f} "
            f"cells/s ({ratios[-1]:.2f}x)"
        )
    ratio = statistics.median(ratios)
    print(f"median ratio {ratio:.2f}x")
    assert ratio >= 1.0
