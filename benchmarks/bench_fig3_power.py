"""Figure 3: power dissipation of each implementation varying matrix size.

Regenerates the mW series per chip via the full section-3.3 powermetrics
protocol (start / warm-up / SIGINFO reset / run / SIGINFO / parse).
"""

import pytest

from benchmarks.conftest import figure_series, model_session, print_series
from repro.calibration import paper


@pytest.mark.parametrize("chip", list(paper.CHIPS))
def test_figure3_panel(benchmark, chip):
    def run():
        return figure_series("figure3", (chip,), model_session(), repeats=3)[chip]

    panel = benchmark.pedantic(run, rounds=2, iterations=1)
    print_series(f"Figure 3 — {chip}", {chip: panel}, "mW")

    all_values_w = [v / 1e3 for s in panel.values() for v in s.values()]
    # "Power consumption varies from a few Watts to 10-20 Watts."
    assert max(all_values_w) <= 21.0
    assert min(all_values_w) >= 0.5
    # Power grows with size for every implementation.
    for impl, series in panel.items():
        values = [series[n] for n in sorted(series)]
        assert values == sorted(values), impl


def test_figure3_m4_cutlass_peak(benchmark):
    """M4 GPU-CUTLASS is the study's power maximum (~20 W)."""

    def run():
        return figure_series(
            "figure3",
            ("M4",),
            model_session(),
            sizes=(16384,),
            impl_keys=("gpu-cutlass",),
            repeats=3,
        )["M4"]["gpu-cutlass"][16384]

    mw = benchmark.pedantic(run, rounds=2, iterations=1)
    print(f"\nM4 gpu-cutlass @16384: {mw:.0f} mW")
    assert mw == pytest.approx(19_800, rel=0.06)


def test_figure3_laptops_below_desktops(benchmark):
    """Section 7: M1/M3 (passive laptops) dissipate less than M2/M4 minis."""

    def run():
        session = model_session()
        peaks = {}
        for chip in paper.CHIPS:
            data = figure_series(
                "figure3",
                (chip,),
                session,
                sizes=(16384,),
                impl_keys=("gpu-cutlass", "gpu-mps", "gpu-naive"),
                repeats=2,
            )[chip]
            peaks[chip] = max(v for s in data.values() for v in s.values())
        return peaks

    peaks = benchmark.pedantic(run, rounds=2, iterations=1)
    print(f"\nPeak combined draw (mW): { {k: round(v) for k, v in peaks.items()} }")
    assert peaks["M1"] < peaks["M2"]
    assert peaks["M3"] < peaks["M4"]
