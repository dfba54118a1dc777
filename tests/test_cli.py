"""CLI smoke tests (fast mode, subset of chips)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_options(self):
        args = build_parser().parse_args(["figure2", "--chips", "M1", "--fast", "--csv"])
        assert args.chips == ["M1"] and args.fast and args.csv

    def test_rejects_unknown_chip(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--chips", "M9"])

    @pytest.mark.parametrize(
        "command, name",
        [
            (command, name)
            for command in (["run"], ["study", "run"], ["serve"], ["calibrate"])
            for name in ("threads", "processes")
        ]
        # derived chips live in the parent's registry; workers cannot see them
        + [(["calibrate"], "sharded")],
    )
    def test_backend_option_rejects_unsupported_backends(
        self, command, name, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--backend", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "ARMv9.2-A" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Metal Performance Shaders (MPS)" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "MacBook Air" in capsys.readouterr().out

    def test_references(self, capsys):
        assert main(["references"]) == 0
        assert "Green500" in capsys.readouterr().out

    def test_figure1_text(self, capsys):
        assert main(["figure1", "--chips", "M1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "CPU:" in out and "GPU:" in out

    def test_figure1_csv(self, capsys):
        assert main(["figure1", "--chips", "M1", "--fast", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("chip,target,kernel,bandwidth_gbs")

    def test_figure2(self, capsys):
        assert main(["figure2", "--chips", "M1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "gpu-mps" in out and "cpu-accelerate" in out

    def test_figure3_csv(self, capsys):
        assert main(["figure3", "--chips", "M1", "--fast", "--csv"]) == 0
        assert "power_mw" in capsys.readouterr().out

    def test_figure4(self, capsys):
        assert main(["figure4", "--chips", "M1", "--fast"]) == 0
        assert "GFLOPS/W" in capsys.readouterr().out

    def test_gh200(self, capsys):
        assert main(["gh200", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Grace LPDDR5X" in out and "cublasSgemm" in out

    def test_stream_classic_output(self, capsys):
        assert main(["stream", "--chip", "M2", "--target", "cpu", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Best Rate MB/s" in out
        assert "Solution Validates" in out
        assert "STREAM (CPU, M2)" in out

    def test_roofline(self, capsys):
        assert main(["roofline", "--chips", "M4"]) == 0
        out = capsys.readouterr().out
        assert "Roofline — M4" in out
        assert "gpu-mps" in out and "compute" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
