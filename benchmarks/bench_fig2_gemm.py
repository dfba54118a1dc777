"""Figure 2: GFLOPS for all implementations and matrix sizes.

Regenerates one chip's panel per bench: the full n = 32..16384 sweep for the
six study implementations, five repetitions each, best-of-repeats GFLOPS.
"""

import pytest

from benchmarks.conftest import figure_series, model_session
from repro.calibration import paper


@pytest.mark.parametrize("chip", list(paper.CHIPS))
def test_figure2_panel(benchmark, chip):
    def run():
        return figure_series("figure2", (chip,), model_session())[chip]

    panel = benchmark.pedantic(run, rounds=2, iterations=1)

    print(f"\nFigure 2 — {chip} (GFLOPS, best of {paper.GEMM_REPEATS})")
    for impl, series in panel.items():
        cells = "  ".join(f"n={n}:{v:9.1f}" for n, v in sorted(series.items()))
        print(f"  {impl:16s} {cells}")

    # Quantitative targets (section 5.2).
    for impl in ("cpu-accelerate", "gpu-naive", "gpu-cutlass", "gpu-mps"):
        peak = max(panel[impl].values())
        assert peak == pytest.approx(
            paper.FIG2_PEAK_GFLOPS[impl][chip], rel=0.04
        ), impl

    # Shape: MPS dominates; CPU loops stop at 4096; GPU loses at n=32.
    mps_peak = max(panel["gpu-mps"].values())
    assert all(
        mps_peak >= max(series.values()) - 1e-9
        for series in panel.values()
        if series
    )
    assert max(panel["cpu-single"]) == paper.CPU_LOOP_MAX_N
    assert max(panel["cpu-omp"]) == paper.CPU_LOOP_MAX_N
    assert panel["gpu-mps"][32] < panel["cpu-accelerate"][32]


def test_figure2_generational_scaling(benchmark):
    """M1 -> M4 peaks improve monotonically for MPS and Accelerate."""

    def run():
        session = model_session()
        peaks = {}
        for chip in paper.CHIPS:
            data = figure_series(
                "figure2",
                (chip,),
                session,
                sizes=(16384,),
                impl_keys=("gpu-mps", "cpu-accelerate"),
                repeats=2,
            )[chip]
            peaks[chip] = {k: max(v.values()) for k, v in data.items()}
        return peaks

    peaks = benchmark.pedantic(run, rounds=2, iterations=1)
    for impl in ("gpu-mps", "cpu-accelerate"):
        series = [peaks[chip][impl] for chip in paper.CHIPS]
        print(f"\n{impl} generational peaks: {[round(v) for v in series]}")
        assert series == sorted(series)
