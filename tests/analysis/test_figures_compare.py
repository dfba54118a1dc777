"""Figure assembly, paper comparison and shape checks (fast mode)."""

import dataclasses
import warnings

import pytest

from repro.analysis.compare import (
    ComparisonRow,
    compare_to_paper,
    render_comparison,
    shape_checks,
)
from repro.analysis.export import figure_series_to_rows, rows_to_csv, to_json
from repro.experiments import GemmSpec, Session
from repro.sim.machine import Machine
from repro.soc.catalog import M4
from repro.soc.device import device_for_chip
from repro.study import get_figure, run_study, study_session

from tests.conftest import figure_series


CHIPS = ("M1", "M4")


@pytest.fixture(scope="module")
def session():
    return Session(numerics="model-only", seed=0)


@pytest.fixture(scope="module")
def fig1(session):
    return figure_series("figure1", CHIPS, session)


@pytest.fixture(scope="module")
def fig2(session):
    return figure_series("figure2", CHIPS, session, sizes=(32, 1024, 16384), repeats=2)


@pytest.fixture(scope="module")
def fig4(session):
    return figure_series("figure4", CHIPS, session, sizes=(2048, 16384), repeats=2)


class TestFigureData:
    def test_figure1_structure(self, fig1):
        assert set(fig1) == {"M1", "M4"}
        for entry in fig1.values():
            assert set(entry) == {"theoretical", "cpu", "gpu"}
            assert set(entry["cpu"]) == {"copy", "scale", "add", "triad"}

    def test_figure2_excludes_cpu_loops_at_16384(self, fig2):
        for chip in fig2:
            assert 16384 not in fig2[chip]["cpu-single"]
            assert 16384 in fig2[chip]["gpu-mps"]

    def test_figure3_reports_milliwatts(self, session):
        fig3 = figure_series(
            "figure3",
            CHIPS,
            session,
            sizes=(16384,),
            impl_keys=("gpu-mps",),
            repeats=1,
        )
        for chip in fig3:
            mw = fig3[chip]["gpu-mps"][16384]
            assert 1000.0 < mw < 25000.0  # a few watts in mW

    def test_figure4_efficiency_units(self, fig4):
        for chip in fig4:
            assert max(fig4[chip]["gpu-mps"].values()) > 100.0

    def test_off_catalog_chip_runs_through_a_machine_factory(self):
        # a factory session resolves to the serial backend by default
        chip = dataclasses.replace(M4, name="M4-Custom")
        device = dataclasses.replace(device_for_chip("M4"), chip_name=chip.name)
        session = Session(
            numerics="model-only",
            machine_factory=lambda name, seed, numerics: Machine(
                chip, device, seed=seed, numerics=numerics
            ),
        )
        data = figure_series("figure1", (chip.name,), session, n_elements=1 << 14)
        assert set(data) == {chip.name}
        assert data[chip.name]["cpu"]  # executed, not rejected by the catalog


GEMM_AXES = dict(sizes=(64,), impl_keys=("gpu-mps",), repeats=1)

FIGURE_AXES = {
    "figure1": dict(n_elements=1 << 14),
    "figure2": GEMM_AXES,
    "figure3": GEMM_AXES,
    "figure4": GEMM_AXES,
}


class TestSessionStyle:
    """A figure's study runs on the caller's session: its seed, numerics
    and machines."""

    @pytest.mark.parametrize("name", sorted(FIGURE_AXES))
    def test_builder_emits_no_deprecation_warning(self, name):
        # the path every figure command takes: the figure's study on its
        # study_session, then the FigureDef query over the frame
        figure = get_figure(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            study = figure.study(("M1",), **FIGURE_AXES[name])
            frame = run_study(study, session=study_session(study, fast=True))
            data = figure.series(frame, chips=("M1",))
        assert set(data) == {"M1"}

    def test_chip_names_match_an_explicit_session_run(self):
        data = figure_series(
            "figure2",
            ("M3",),
            Session(numerics="model-only", seed=7),
            sizes=(4096,),
            impl_keys=("gpu-mps",),
            repeats=2,
        )
        envelope = Session(numerics="model-only", seed=7).run(
            GemmSpec(chip="M3", impl_key="gpu-mps", n=4096, repeats=2, seed=7)
        )
        assert data["M3"]["gpu-mps"][4096] == envelope.result.best_gflops

    def test_factory_session_supplies_its_seed_and_numerics(self):
        calls = []

        def factory(name, seed, numerics):
            calls.append((name, seed, numerics))
            return Machine.for_chip(name, seed=seed, numerics=numerics)

        session = Session(numerics="model-only", seed=7, machine_factory=factory)
        axes = dict(sizes=(64, 2048), impl_keys=("cpu-accelerate",), repeats=2)
        data = figure_series("figure2", ("M1", "M4"), session, **axes)
        assert {name for name, _, _ in calls} == {"M1", "M4"}
        assert {(seed, numerics) for _, seed, numerics in calls} == {
            (7, session.numerics)
        }
        # catalog machines through a factory match the catalog session
        catalog = Session(numerics="model-only", seed=7)
        assert data == figure_series("figure2", ("M1", "M4"), catalog, **axes)


class TestCompare:
    def test_rows_cover_requested_figures(self, fig1, fig2, fig4):
        rows = compare_to_paper(fig1=fig1, fig2=fig2, fig4=fig4)
        experiments = {r.experiment for r in rows}
        assert experiments == {"Figure 1", "Figure 2", "Figure 4"}

    def test_all_headline_numbers_within_5pct(self, fig1, fig2, fig4):
        rows = compare_to_paper(fig1=fig1, fig2=fig2, fig4=fig4)
        assert rows, "comparison produced no rows"
        for row in rows:
            assert row.within(0.05), f"{row.quantity}: {row.relative_error:+.1%}"

    def test_relative_error(self):
        row = ComparisonRow("F", "q", 100.0, 103.0, "GB/s")
        assert row.relative_error == pytest.approx(0.03)
        assert row.within(0.05) and not row.within(0.01)

    def test_render_comparison_markdown(self, fig1):
        text = render_comparison(compare_to_paper(fig1=fig1))
        assert text.startswith("| Experiment |")
        assert "| GB/s |" in text

    def test_shape_checks_pass(self, fig1, fig2, fig4):
        checks = shape_checks(fig1=fig1, fig2=fig2, fig4=fig4)
        failing = [name for name, ok in checks.items() if not ok]
        assert not failing, failing

    def test_m1_similarity_check_present(self, fig2):
        checks = shape_checks(fig2=fig2)
        assert "fig2/M1/cpu-gpu-similar" in checks


class TestExport:
    def test_tidy_rows(self, fig2):
        rows = figure_series_to_rows(fig2, "gflops")
        assert all(set(r) == {"chip", "implementation", "n", "gflops"} for r in rows)
        assert any(r["chip"] == "M4" and r["n"] == 16384 for r in rows)

    def test_csv_roundtrip(self, fig2):
        import csv
        import io

        rows = figure_series_to_rows(fig2, "gflops")
        text = rows_to_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        assert parsed[0]["chip"] == rows[0]["chip"]

    def test_empty_csv(self):
        assert rows_to_csv([]) == ""

    def test_json_deterministic(self, fig1):
        assert to_json(fig1) == to_json(fig1)


class TestReferenceSystems:
    def test_reference_table(self):
        from repro.analysis.reference_systems import (
            REFERENCE_SYSTEMS,
            render_reference_table,
        )

        text = render_reference_table()
        assert "Green500" in text and "RTX 4090" in text and "MI250X" in text
        assert len(REFERENCE_SYSTEMS) == 5

    def test_values_match_paper_constants(self):
        from repro.analysis.reference_systems import REFERENCE_SYSTEMS

        by_name = {r.name: r for r in REFERENCE_SYSTEMS}
        assert by_name["Green500 #1 (Nov 2024)"].value == 72.0
        assert by_name["Nvidia A100"].value == 700.0
        assert by_name["Intel Xeon Max 9468"].value == 5700.0
