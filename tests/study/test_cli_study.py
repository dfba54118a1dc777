"""CLI integration: `repro study list|run|render` and figure-path parity."""

import shutil

import pytest

from repro.cli import main
from repro.experiments import RunManifest, load_envelopes
from repro.study import FIGURES, TABLES

from tests.conftest import downgrade_store_to_1_1_0


@pytest.fixture(scope="module")
def study_store(tmp_path_factory):
    """One fast M1 study persisted through the CLI (module-shared)."""
    out = tmp_path_factory.mktemp("study") / "store"
    code = main(
        ["study", "run", "--fast", "--chips", "M1", "--quiet", "--out", str(out)]
    )
    assert code == 0
    return out


class TestStudyList:
    def test_lists_every_definition(self, capsys):
        assert main(["study", "list"]) == 0
        text = capsys.readouterr().out
        for name in (*FIGURES, *TABLES, "efficiency", "compare"):
            assert name in text
        assert "gflops_per_w" in text  # the metric vocabulary is shown


class TestStudyRun:
    def test_persists_a_manifest_indexed_store(self, study_store, capsys):
        envelopes = load_envelopes(study_store)
        assert {env.kind for env in envelopes} == {
            "stream",
            "gemm",
            "powered-gemm",
        }
        manifest = RunManifest.load(study_store)
        counts = manifest.status_counts()
        assert counts.get("done") == len(envelopes)

    def test_rerun_resumes_and_executes_nothing(self, study_store, capsys):
        assert (
            main(
                [
                    "study",
                    "run",
                    "--fast",
                    "--chips",
                    "M1",
                    "--quiet",
                    "--out",
                    str(study_store),
                ]
            )
            == 0
        )
        assert "0 executed" in capsys.readouterr().out

    def test_without_out_prints_summaries(self, capsys):
        code = main(
            [
                "study",
                "run",
                "--fast",
                "--chips",
                "M1",
                "--figures",
                "figure2",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        assert "cells" in out


class TestStudyRender:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_figure_from_store_matches_classic_figure_path(
        self, study_store, capsys, name
    ):
        # Pin --chips so both commands apply the same series scaffold
        # (classic figures default to all four chips, study render to
        # whatever the store holds).
        assert (
            main(
                [
                    "study",
                    "render",
                    name,
                    "--chips",
                    "M1",
                    "--from",
                    str(study_store),
                ]
            )
            == 0
        )
        via_study = capsys.readouterr().out
        assert main([name, "--chips", "M1", "--from", str(study_store)]) == 0
        via_figure = capsys.readouterr().out
        assert "M1" in via_study
        assert via_study == via_figure

    def test_figure1_text_and_csv(self, study_store, capsys):
        assert (
            main(["study", "render", "figure1", "--from", str(study_store)])
            == 0
        )
        assert "theoretical" in capsys.readouterr().out
        assert (
            main(
                [
                    "study",
                    "render",
                    "figure1",
                    "--csv",
                    "--from",
                    str(study_store),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.startswith("chip,target,kernel")

    def test_a_1_1_0_store_is_refused_and_left_in_place(
        self, study_store, tmp_path, capsys
    ):
        stale = tmp_path / "stale"
        shutil.copytree(study_store, stale)
        files = {path: path.read_bytes() for path in downgrade_store_to_1_1_0(stale)}
        code = main(["study", "render", "figure2", "--from", str(stale)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "1.1.0" in err and "fresh directory" in err
        assert not (stale / ".quarantine").exists()
        assert {path: path.read_bytes() for path in files} == files

    def test_efficiency_report_from_store(self, study_store, capsys):
        assert (
            main(["study", "render", "efficiency", "--from", str(study_store)])
            == 0
        )
        text = capsys.readouterr().out
        assert "GFLOPS/W" in text
        assert "powered-gemm" in text

    def test_efficiency_csv_from_store(self, study_store, capsys):
        assert (
            main(
                [
                    "study",
                    "render",
                    "efficiency",
                    "--csv",
                    "--from",
                    str(study_store),
                ]
            )
            == 0
        )
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "kind,chip,variant,size,gflops,power_w,joules,gflops_per_w"

    def test_compare_from_store(self, study_store, capsys):
        assert (
            main(["study", "render", "compare", "--from", str(study_store)])
            == 0
        )
        assert "| Experiment |" in capsys.readouterr().out

    def test_tables_render_without_a_store(self, capsys):
        for name in TABLES:
            if name == "calibration-mape":
                # Renders a live self-calibration; covered (with a small
                # grid) by tests/calibrate/test_cli_calibrate.py.
                continue
            assert main(["study", "render", name]) == 0
            assert f"Table {name[-1]}" in capsys.readouterr().out

    def test_fast_trims_the_grid_only_under_study_render(self, capsys):
        # `repro figure2 --fast` is model-only numerics over the figure's
        # full grid; `repro study render figure2 --fast` also trims it to
        # the smoke axes
        def gpu_mps_sizes(argv):
            assert main(argv + ["--fast", "--chips", "M1", "--csv"]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            return tuple(
                int(row.split(",")[2])
                for row in rows
                if row.split(",")[1] == "gpu-mps"
            )

        figure = FIGURES["figure2"]
        assert gpu_mps_sizes(["figure2"]) == figure.axis().sizes
        assert gpu_mps_sizes(["study", "render", "figure2"]) == (
            figure.axis(fast=True).sizes
        )
        assert len(figure.axis(fast=True).sizes) < len(figure.axis().sizes)

    def test_live_figure_render(self, capsys):
        code = main(
            [
                "study",
                "render",
                "figure2",
                "--fast",
                "--chips",
                "M1",
            ]
        )
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out
