"""Literature reference points the paper quotes (sections 5.3 and 7)."""

from benchmarks.conftest import figure_series, model_session
from repro.analysis.reference_systems import REFERENCE_SYSTEMS, render_reference_table
from repro.calibration import paper


def test_reference_table(benchmark):
    text = benchmark(render_reference_table)
    print("\n" + text)
    assert "Green500" in text


def test_m_series_vs_literature_efficiency(benchmark):
    """Situate simulated M-series efficiency among the quoted systems."""

    def run():
        return figure_series(
            "figure4",
            ("M3",),
            model_session(),
            sizes=(16384,),
            impl_keys=("gpu-mps",),
            repeats=2,
        )["M3"]["gpu-mps"][16384]

    m3_eff = benchmark.pedantic(run, rounds=2, iterations=1)
    by_name = {r.name: r for r in REFERENCE_SYSTEMS}
    green500 = by_name["Green500 #1 (Nov 2024)"].value
    a100 = by_name["Nvidia A100"].value
    print(
        f"\nM3 GPU-MPS: {m3_eff:.0f} GFLOPS/W | Green500 #1: {green500:.0f} | "
        f"A100 (MMA): {a100:.0f} | RTX 4090 (MMA): {by_name['Nvidia RTX 4090'].value:.0f}"
    )
    # The paper's ordering: above Green500's HPL number, below the A100's
    # mixed-precision MMA number (the not-perfectly-fair comparison).
    assert m3_eff > green500
    assert m3_eff < a100
