"""CLI: chart rendering and the EXPERIMENTS.md generator."""

import pathlib

import pytest

from repro.cli import main


class TestChartOutput:
    def test_figure1_chart(self, capsys):
        assert main(["figure1", "--chips", "M1", "--fast", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "█" in out  # bars drawn
        assert "|" in out  # theoretical marker

    def test_figure2_chart(self, capsys):
        assert main(["figure2", "--chips", "M1", "--fast", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "log-log" in out
        assert "gpu-mps" in out


class TestExperimentsCommand:
    def test_writes_report(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["experiments", "--output", str(target)]) == 0
        text = target.read_text()
        assert "# EXPERIMENTS — paper vs. measured" in text
        assert "Figure 2" in text and "GH200" in text
        assert "shape checks" in text
        # Every quantitative row within the documented tolerance.
        assert "worst deviation" in text

    def test_seed_changes_measured_values(self, tmp_path):
        a = tmp_path / "a.md"
        b = tmp_path / "b.md"
        main(["experiments", "--output", str(a), "--seed", "1"])
        main(["experiments", "--output", str(b), "--seed", "2"])
        # Different measurement noise, same structure.
        assert a.read_text() != b.read_text()
        assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]


class TestAllCommand:
    def test_all_fast_runs_everything(self, capsys):
        assert main(["all", "--fast"]) == 0
        out = capsys.readouterr().out
        for marker in (
            "Table 1",
            "Table 2",
            "Table 3",
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "GH200",
            "Green500",
        ):
            assert marker in out, marker

    def test_all_is_the_single_commands_in_paper_order(self, capsys):
        """``all --fast`` prints exactly what the single commands print,
        one blank line between them."""
        parts = []
        for argv in (
            ["table1"],
            ["table2"],
            ["table3"],
            ["figure1", "--fast"],
            ["figure2", "--fast"],
            ["figure3", "--fast"],
            ["figure4", "--fast"],
            ["gh200", "--fast"],
            ["references"],
        ):
            assert main(argv) == 0
            parts.append(capsys.readouterr().out)
        assert main(["all", "--fast"]) == 0
        assert capsys.readouterr().out == "\n".join(parts)
