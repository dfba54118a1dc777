"""Figure 4: power efficiency in GFLOPS per watt, higher is better."""

import pytest

from benchmarks.conftest import figure_series, model_session, print_series
from repro.calibration import paper


@pytest.mark.parametrize("chip", list(paper.CHIPS))
def test_figure4_panel(benchmark, chip):
    def run():
        return figure_series("figure4", (chip,), model_session(), repeats=3)[chip]

    panel = benchmark.pedantic(run, rounds=2, iterations=1)
    print_series(f"Figure 4 — {chip}", {chip: panel}, "GFLOPS/W")

    # Quantified targets (section 5.3).
    for impl in ("gpu-mps", "cpu-accelerate"):
        measured = max(panel[impl].values())
        assert measured == pytest.approx(
            paper.FIG4_EFFICIENCY_GFLOPS_PER_W[impl][chip], rel=0.08
        ), impl

    # "All four chips reached the efficiency of 200 GFLOPS per Watt with
    # GPU-MPS" / "~10x higher than the other two GPU-based implementations".
    mps = max(panel["gpu-mps"].values())
    assert mps >= 200.0
    for other in ("gpu-naive", "gpu-cutlass"):
        ratio = mps / max(panel[other].values())
        assert ratio > 4.0, (other, ratio)

    # "Both CPU-single and OMP achieve less than 1 GFLOPS per Watt."
    for impl in ("cpu-single", "cpu-omp"):
        assert max(panel[impl].values()) < 1.0, impl


def test_figure4_green500_perspective(benchmark):
    """HPC perspective: the M2 CPU's 200 GFLOPS/W vs Green500's 72."""

    def run():
        return figure_series(
            "figure4",
            ("M2",),
            model_session(),
            sizes=(16384,),
            impl_keys=("cpu-accelerate",),
            repeats=3,
        )["M2"]["cpu-accelerate"][16384]

    efficiency = benchmark.pedantic(run, rounds=2, iterations=1)
    green500 = float(paper.LITERATURE["green500-top"]["gflops_per_w"])
    print(f"\nM2 CPU-Accelerate: {efficiency:.0f} GFLOPS/W vs Green500 #1 {green500:.0f}")
    assert efficiency > 2.0 * green500
