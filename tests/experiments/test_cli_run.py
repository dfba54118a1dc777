"""CLI integration: `repro run` envelopes and `--from` figure re-rendering."""

import json

import pytest

from repro.cli import main
from repro.experiments import (
    RunManifest,
    Session,
    SweepSpec,
    load_envelopes,
    run_with_manifest,
)
from repro.experiments.backends import ShardedBackend


class TestRunCommand:
    def test_writes_envelopes(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            [
                "run",
                "--kind",
                "gemm",
                "--chips",
                "M1",
                "--impls",
                "gpu-mps",
                "--sizes",
                "256",
                "1024",
                "--numerics",
                "model-only",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        assert "wrote 2 envelopes" in capsys.readouterr().out
        envelopes = load_envelopes(out)
        assert {e.spec.n for e in envelopes} == {256, 1024}
        assert all(e.kind == "gemm" for e in envelopes)

    def test_json_output(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--kind",
                    "stream",
                    "--chips",
                    "M1",
                    "--targets",
                    "cpu",
                    "--numerics",
                    "model-only",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["spec"]["kind"] == "stream"
        assert payload[0]["result"]["type"] == "stream"

    def test_human_summary_default(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--chips",
                    "M1",
                    "--impls",
                    "gpu-mps",
                    "--sizes",
                    "512",
                    "--numerics",
                    "model-only",
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "gpu-mps" in out and "GFLOPS" in out

    def test_powered_kind_reports_efficiency(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--kind",
                    "powered-gemm",
                    "--chips",
                    "M4",
                    "--impls",
                    "gpu-mps",
                    "--sizes",
                    "2048",
                    "--repeats",
                    "2",
                    "--numerics",
                    "model-only",
                    "--quiet",
                ]
            )
            == 0
        )
        assert "GFLOPS/W" in capsys.readouterr().out


def _store_bytes(root) -> dict[str, str]:
    """Relative path -> file text of every JSON file under a store."""
    return {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(root.rglob("*.json"))
    }


class TestRunBackends:
    """`repro run --backend` — same store bytes from every backend."""

    SWEEP_ARGS = [
        "run",
        "--kind",
        "stencil",
        "--chips",
        "M1",
        "--sizes",
        "256",
        "512",
        "--repeats",
        "2",
        "--numerics",
        "model-only",
        "--quiet",
    ]

    def test_sharded_store_is_byte_identical_to_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial"
        sharded = tmp_path / "sharded"
        assert main(self.SWEEP_ARGS + ["--backend", "serial", "--out", str(serial)]) == 0
        assert (
            main(
                self.SWEEP_ARGS
                + ["--backend", "sharded", "--workers", "2", "--out", str(sharded)]
            )
            == 0
        )
        capsys.readouterr()
        assert _store_bytes(sharded) == _store_bytes(serial)

    def test_sharded_backend_summary_identical(self, capsys):
        assert main(self.SWEEP_ARGS + ["--backend", "serial"]) == 0
        serial_out = capsys.readouterr().out
        assert main(self.SWEEP_ARGS + ["--backend", "sharded", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_shard_size_selects_sharded_unless_another_backend_is_named(
        self, monkeypatch, capsys
    ):
        shard_sizes = []
        run = ShardedBackend.run

        def spy(backend, *args, **kwargs):
            shard_sizes.append(backend.shard_size)
            return run(backend, *args, **kwargs)

        monkeypatch.setattr(ShardedBackend, "run", spy)
        assert main(self.SWEEP_ARGS + ["--shard-size", "2"]) == 0
        assert shard_sizes == [2]
        capsys.readouterr()
        for backend in ("vectorized", "serial"):
            args = self.SWEEP_ARGS + ["--backend", backend, "--shard-size", "2"]
            assert main(args) == 2
            assert "--shard-size only applies to --backend sharded" in (
                capsys.readouterr().err
            )

    def test_shard_size_tunes_an_explicit_sharded_backend(
        self, monkeypatch, capsys
    ):
        configs = []
        run = ShardedBackend.run

        def spy(backend, *args, **kwargs):
            configs.append((backend.max_workers, backend.shard_size))
            return run(backend, *args, **kwargs)

        monkeypatch.setattr(ShardedBackend, "run", spy)
        args = self.SWEEP_ARGS + [
            "--backend", "sharded", "--workers", "2", "--shard-size", "3"
        ]
        assert main(args) == 0
        assert configs == [(2, 3)]

    def test_out_writes_manifest_with_all_cells_done(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(self.SWEEP_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        manifest = RunManifest.load(out)
        # 2 sizes x the 2 stencil implementations
        assert manifest.status_counts() == {"done": 4}

    def test_out_store_reusable_across_session_configs(self, tmp_path, capsys):
        """Mixed-session stores keep working: a second `--out` run under a
        different numerics profile appends instead of erroring."""
        out = tmp_path / "store"
        assert main(self.SWEEP_ARGS + ["--out", str(out)]) == 0
        args = [a if a != "model-only" else "sampled" for a in self.SWEEP_ARGS]
        assert main(args + ["--kind", "spmv", "--out", str(out)]) == 0
        capsys.readouterr()
        kinds = {e.kind for e in load_envelopes(out)}
        assert kinds == {"stencil", "spmv"}


class TestRunResume:
    """Interrupt a manifested run mid-grid, then `repro run --resume`."""

    SWEEP = SweepSpec(
        kind="gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256, 512, 1024)
    )
    KILL_AFTER = 1

    def _interrupted_store(self, root):
        """A store killed after KILL_AFTER cells (progress-hook interrupt)."""

        class Killed(RuntimeError):
            pass

        def kill(done, total, envelope):
            if done >= self.KILL_AFTER:
                raise Killed

        with pytest.raises(Killed):
            run_with_manifest(
                Session(numerics="model-only"), self.SWEEP, root, progress=kill
            )
        return root

    def test_resume_completes_the_manifest(self, tmp_path, capsys):
        store = self._interrupted_store(tmp_path / "store")
        before = RunManifest.load(store).status_counts()
        assert before == {"done": self.KILL_AFTER, "pending": 2}
        assert main(["run", "--resume", str(store), "--quiet"]) == 0
        # 2 executed now; the store holds all 3 cells
        assert "wrote 2 envelopes" in capsys.readouterr().out
        assert RunManifest.load(store).status_counts() == {"done": 3}

    def test_resume_skips_done_cells(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.session as session_module

        store = self._interrupted_store(tmp_path / "store")
        executed = []
        real = session_module.execute_spec
        monkeypatch.setattr(
            session_module,
            "execute_spec",
            lambda machine, spec: (executed.append(spec), real(machine, spec))[1],
        )
        # serial: patched counters in worker processes would be invisible
        assert (
            main(["run", "--resume", str(store), "--backend", "serial", "--quiet"])
            == 0
        )
        capsys.readouterr()
        assert len(executed) == 2  # only the cells the interrupt lost

    def test_resumed_render_matches_uninterrupted_run(self, tmp_path, capsys):
        store = self._interrupted_store(tmp_path / "store")
        assert main(["run", "--resume", str(store), "--quiet"]) == 0
        clean = tmp_path / "clean"
        run_with_manifest(Session(numerics="model-only"), self.SWEEP, clean)
        capsys.readouterr()
        resumed = _run_figure(capsys, ["run", "--from", str(store), "--quiet"])
        reference = _run_figure(capsys, ["run", "--from", str(clean), "--quiet"])
        assert resumed == reference
        assert _store_bytes(store) == _store_bytes(clean)

    def test_resume_without_manifest_is_a_clean_error(self, tmp_path, capsys):
        assert main(["run", "--resume", str(tmp_path), "--quiet"]) == 2
        assert "no run manifest" in capsys.readouterr().err

    def test_resume_refuses_a_manifest_from_another_version(self, tmp_path, capsys):
        from repro import __version__
        from repro.errors import VersionMismatchError

        store = self._interrupted_store(tmp_path / "store")
        path = store / "manifest.json"
        data = json.loads(path.read_text())
        data["session"]["repro_version"] = "1.0.0"
        path.write_text(json.dumps(data))
        assert main(["run", "--resume", str(store), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "repro 1.0.0" in err and f"repro {__version__}" in err
        assert "re-run into a fresh directory" in err
        with pytest.raises(VersionMismatchError) as info:
            RunManifest.load(store).make_session()
        assert (info.value.written_by, info.value.running) == ("1.0.0", __version__)

    def test_resume_rejects_out_redirection(self, tmp_path, capsys):
        store = self._interrupted_store(tmp_path / "store")
        code = main(
            ["run", "--resume", str(store), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_from_and_resume_are_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--from", str(tmp_path), "--resume", str(tmp_path)])
        assert "not allowed with" in capsys.readouterr().err

    def test_from_with_out_rewrites_the_store(self, tmp_path, capsys):
        """--from DIR --out DIR2 migrates a legacy flat store to sharded."""
        from repro.experiments import Session, save_envelopes

        legacy = tmp_path / "legacy"
        session = Session(numerics="model-only")
        envelopes = session.run_batch(self.SWEEP)
        save_envelopes(legacy, envelopes, sharded=False)
        migrated = tmp_path / "migrated"
        assert (
            main(["run", "--from", str(legacy), "--out", str(migrated), "--quiet"])
            == 0
        )
        assert "wrote 3 envelopes" in capsys.readouterr().out
        assert {e.to_json() for e in load_envelopes(migrated)} == {
            e.to_json() for e in envelopes
        }
        assert any(p.is_dir() for p in migrated.iterdir())  # sharded layout

    def test_resume_reports_progress_counts(self, tmp_path, capsys):
        store = self._interrupted_store(tmp_path / "store")
        assert main(["run", "--resume", str(store)]) == 0
        err = capsys.readouterr().err
        assert "1 cells done, 2 to run" in err
        assert "[3/3]" in err


def _run_figure(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestFigureFromEnvelopes:
    """Acceptance: run -> persist -> re-render identically from disk."""

    @pytest.fixture()
    def gemm_store(self, tmp_path, capsys):
        out = tmp_path / "gemm"
        assert (
            main(
                [
                    "run",
                    "--kind",
                    "gemm",
                    "--chips",
                    "M1",
                    "M4",
                    "--numerics",
                    "model-only",
                    "--seed",
                    "0",
                    "--workers",
                    "4",
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        return out

    def test_figure2_from_store_identical_to_direct(self, gemm_store, capsys):
        from_disk = _run_figure(
            capsys,
            ["figure2", "--fast", "--chips", "M1", "M4", "--from", str(gemm_store)],
        )
        direct = _run_figure(
            capsys, ["figure2", "--fast", "--chips", "M1", "M4", "--seed", "0"]
        )
        assert from_disk == direct

    def test_figure2_csv_from_store_identical(self, gemm_store, capsys):
        from_disk = _run_figure(
            capsys,
            [
                "figure2",
                "--fast",
                "--chips",
                "M1",
                "M4",
                "--csv",
                "--from",
                str(gemm_store),
            ],
        )
        direct = _run_figure(
            capsys, ["figure2", "--fast", "--chips", "M1", "M4", "--csv"]
        )
        assert from_disk == direct

    def test_figure1_round_trip(self, tmp_path, capsys):
        out = tmp_path / "stream"
        assert (
            main(
                [
                    "run",
                    "--kind",
                    "stream",
                    "--chips",
                    "M1",
                    "--numerics",
                    "model-only",
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        from_disk = _run_figure(
            capsys, ["figure1", "--fast", "--chips", "M1", "--from", str(out)]
        )
        direct = _run_figure(capsys, ["figure1", "--fast", "--chips", "M1"])
        assert from_disk == direct

    def test_figure_out_flag_persists(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        _run_figure(
            capsys,
            [
                "figure2",
                "--fast",
                "--chips",
                "M1",
                "--out",
                str(out),
            ],
        )
        envelopes = load_envelopes(out)
        assert envelopes and all(e.kind == "gemm" for e in envelopes)
        rendered = _run_figure(
            capsys, ["figure2", "--fast", "--chips", "M1", "--from", str(out)]
        )
        direct = _run_figure(capsys, ["figure2", "--fast", "--chips", "M1"])
        assert rendered == direct

    def test_partial_stream_store_renders_without_crash(self, tmp_path, capsys):
        out = tmp_path / "cpu-only"
        assert (
            main(
                [
                    "run",
                    "--kind",
                    "stream",
                    "--chips",
                    "M1",
                    "--targets",
                    "cpu",
                    "--numerics",
                    "model-only",
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        text = _run_figure(
            capsys, ["figure1", "--fast", "--chips", "M1", "--from", str(out)]
        )
        assert "CPU:" in text and "GPU:" not in text
        csv = _run_figure(
            capsys,
            ["figure1", "--fast", "--chips", "M1", "--csv", "--from", str(out)],
        )
        assert "gpu" not in csv.splitlines()[1:][0]

    def test_compare_out_persists_envelopes(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--fast", "--chips", "M1", "--out", str(out)]) == 0
        capsys.readouterr()
        envelopes = load_envelopes(out)
        kinds = {e.kind for e in envelopes}
        assert kinds == {"stream", "gemm", "powered-gemm"}

    def test_compare_from_its_out_store_prints_the_same(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--fast", "--chips", "M1", "--out", str(out)]) == 0
        live = capsys.readouterr().out
        assert main(["compare", "--from", str(out)]) == 0
        assert capsys.readouterr().out == live

    def test_missing_from_directory_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["figure2", "--fast", "--chips", "M1", "--from", str(tmp_path / "no")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "does not exist" in err

    def test_unknown_impl_key_is_a_clean_error(self, capsys):
        code = main(
            [
                "run",
                "--chips",
                "M1",
                "--impls",
                "gpu-warp",
                "--sizes",
                "512",
                "--numerics",
                "model-only",
                "--quiet",
            ]
        )
        assert code == 2
        assert "unknown GEMM implementation" in capsys.readouterr().err

    def test_workers_do_not_change_figures(self, capsys):
        sequential = _run_figure(
            capsys, ["figure2", "--fast", "--chips", "M1", "--workers", "1"]
        )
        parallel = _run_figure(
            capsys, ["figure2", "--fast", "--chips", "M1", "--workers", "4"]
        )
        assert sequential == parallel
