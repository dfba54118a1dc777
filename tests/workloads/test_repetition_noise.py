"""Repetitions draw their own noise: one key per cell, the repetition a counter.

A key names the chip, kernel and size; the k-th draw of a key within one
cell uses counter k.  So repetitions of one cell differ, the same cell on
another chip draws other jitter, and a cell never continues the counters
of another cell in the same batch.
"""

import pytest

from repro.calibration import paper
from repro.experiments import GemmSpec, PoweredGemmSpec, Session, StreamSpec
from repro.workloads import SpmvSpec


def copy_ratios(chip: str, seed: int) -> list[float]:
    """Rep-to-rep ratios of one GPU STREAM cell's Copy bandwidths."""
    spec = StreamSpec(
        chip=chip, seed=seed, target="gpu", n_elements=1 << 20, repeats=6
    )
    values = Session(numerics="model-only").run(spec).result.kernels["copy"]
    gbs = values.bandwidths_gbs
    return [b / a for a, b in zip(gbs, gbs[1:])]


def test_gpu_stream_jitter_differs_across_chips():
    """The GPU dispatch keys carry the chip, so chips draw their own jitter."""
    ratios = {chip: copy_ratios(chip, seed=5) for chip in paper.CHIPS}
    chips = list(ratios)
    for i, a in enumerate(chips):
        for b in chips[i + 1 :]:
            assert max(
                abs(x - y) for x, y in zip(ratios[a], ratios[b])
            ) > 1e-3, (a, b)


@pytest.mark.parametrize("spec_cls", [GemmSpec, PoweredGemmSpec])
def test_gemm_repetitions_draw_distinct_factors(spec_cls):
    spec = spec_cls(chip="M2", seed=3, impl_key="gpu-mps", n=2048, repeats=5)
    result = Session(numerics="model-only").run(spec).result
    timed = result.gemm if spec_cls is PoweredGemmSpec else result
    elapsed = sorted(timed.elapsed_ns)
    assert all(b - a > 1000 for a, b in zip(elapsed, elapsed[1:]))


@pytest.mark.parametrize(
    "short, long",
    [
        (
            GemmSpec(chip="M1", seed=4, impl_key="gpu-mps", n=1024, repeats=3),
            GemmSpec(chip="M1", seed=4, impl_key="gpu-mps", n=1024, repeats=5),
        ),
        (
            SpmvSpec(chip="M1", seed=4, target="gpu", n=4096, repeats=3),
            SpmvSpec(chip="M1", seed=4, target="gpu", n=4096, repeats=5),
        ),
    ],
    ids=["gemm", "spmv"],
)
def test_cells_never_continue_each_others_counters(short, long):
    """Cells differing only in ``repeats`` share their leading draws,
    whether they run alone or side by side in one batch."""
    session = Session(numerics="model-only")
    together = session.run_batch([short, long], use_cache=False)
    alone = [Session(numerics="model-only").run(spec) for spec in (long, short)]
    short_ns = together[0].result.elapsed_ns
    long_ns = together[1].result.elapsed_ns
    assert long_ns[:3] == short_ns
    assert [alone[1].result.elapsed_ns, alone[0].result.elapsed_ns] == [
        short_ns,
        long_ns,
    ]
