"""Run-manifest semantics: indexing, checkpointing, interrupt and resume."""

import json
import warnings

import pytest

import repro.experiments.session as session_module
from repro.errors import ConfigurationError, VersionMismatchError
from repro.experiments import (
    RunManifest,
    Session,
    SweepSpec,
    load_envelopes,
    run_with_manifest,
)
from repro.experiments.manifest import STATUS_DONE, STATUS_PENDING

SWEEP = SweepSpec(
    kind="gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256, 512, 1024)
)


def model_session(**kwargs) -> Session:
    return Session(numerics="model-only", **kwargs)


class Interrupt(RuntimeError):
    """Stands in for SIGINT/OOM-kill in the interrupt tests."""


def interrupt_after(n: int):
    """A progress hook that dies after ``n`` completed cells."""

    def progress(done, total, envelope):
        if done >= n:
            raise Interrupt(f"killed after {n} of {total}")

    return progress


class TestManifestIndex:
    def test_create_records_every_cell_pending(self, tmp_path):
        manifest = RunManifest.create(tmp_path, model_session(), SWEEP.expand())
        counts = manifest.status_counts()
        assert counts == {STATUS_PENDING: len(SWEEP.expand())}
        for spec, record in zip(SWEEP.expand(), manifest.cells.values()):
            assert record.kind == "gemm"
            assert record.spec_hash == spec.spec_hash()
            assert record.spec == spec.to_dict()

    def test_save_load_round_trip(self, tmp_path):
        manifest = RunManifest.create(tmp_path, model_session(), SWEEP.expand())
        manifest.save()
        revived = RunManifest.load(tmp_path)
        assert revived.to_dict() == manifest.to_dict()
        assert [s for s in revived.specs()] == list(SWEEP.expand())

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run manifest"):
            RunManifest.load(tmp_path)

    def test_corrupt_manifest_names_the_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"schema": 1, "cells": [')
        with pytest.raises(ConfigurationError) as excinfo:
            RunManifest.load(tmp_path)
        assert str(path) in str(excinfo.value)

    def test_unsupported_schema_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema": 99, "session": {}, "cells": []})
        )
        with pytest.raises(ConfigurationError, match="unsupported manifest schema"):
            RunManifest.load(tmp_path)

    def test_fingerprint_mismatch_names_differing_fields(self, tmp_path):
        manifest = RunManifest.create(tmp_path, model_session(), SWEEP.expand())
        manifest.save()
        with pytest.raises(ConfigurationError, match="numerics"):
            manifest.check_session(Session(numerics="full"))

    def test_make_session_rebuilds_recorded_configuration(self, tmp_path):
        original = Session(numerics="full", seed=7, noise_sigma=0.02)
        manifest = RunManifest.create(tmp_path, original, SWEEP.expand())
        manifest.save()
        rebuilt = RunManifest.load(tmp_path).make_session()
        assert rebuilt.fingerprint() == original.fingerprint()
        assert rebuilt.seed == original.seed

    def test_make_session_refuses_factory_manifests(self, tmp_path):
        from repro.sim.machine import Machine

        session = Session(
            numerics="model-only",
            machine_factory=lambda chip, seed, numerics: Machine.for_chip(
                "M1", seed=seed, numerics=numerics
            ),
        )
        manifest = RunManifest.create(tmp_path, session, SWEEP.expand())
        manifest.save()
        with pytest.raises(ConfigurationError, match="machine_factory"):
            RunManifest.load(tmp_path).make_session()


class TestRunWithManifest:
    def test_completed_run_marks_every_cell_done(self, tmp_path):
        envelopes, manifest = run_with_manifest(model_session(), SWEEP, tmp_path)
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}
        assert len(envelopes) == len(SWEEP.expand())
        # the manifest on disk agrees with the in-memory one
        assert RunManifest.load(tmp_path).to_dict() == manifest.to_dict()
        # every recorded path exists and holds the matching envelope
        by_hash = {e.spec_hash: e for e in envelopes}
        for record in manifest.cells.values():
            stored = (tmp_path / record.path).read_text()
            assert stored.strip() == by_hash[record.spec_hash].to_json()

    def test_progress_counts_over_the_whole_grid(self, tmp_path):
        seen = []
        run_with_manifest(
            model_session(),
            SWEEP,
            tmp_path,
            progress=lambda done, total, env: seen.append((done, total)),
        )
        total = len(SWEEP.expand())
        assert seen == [(i, total) for i in range(1, total + 1)]

    def test_interrupt_checkpoints_completed_cells(self, tmp_path):
        with pytest.raises(Interrupt):
            run_with_manifest(
                model_session(), SWEEP, tmp_path, progress=interrupt_after(2)
            )
        counts = RunManifest.load(tmp_path).status_counts()
        assert counts[STATUS_DONE] == 2
        assert counts[STATUS_PENDING] == len(SWEEP.expand()) - 2

    def test_checkpoints_journal_instead_of_rewriting_manifest(self, tmp_path):
        """Per-cell durability is one appended line, not an O(grid) rewrite."""
        from repro.experiments.manifest import JOURNAL_FILENAME

        with pytest.raises(Interrupt):
            run_with_manifest(
                model_session(), SWEEP, tmp_path, progress=interrupt_after(2)
            )
        journal = tmp_path / JOURNAL_FILENAME
        assert len(journal.read_text().splitlines()) == 2
        # the full manifest on disk still says all-pending; load() folds in
        # the journal
        raw = json.loads((tmp_path / "manifest.json").read_text())
        assert all(cell["status"] == STATUS_PENDING for cell in raw["cells"])
        assert RunManifest.load(tmp_path).status_counts()[STATUS_DONE] == 2
        # completing the run folds and retires the journal
        run_with_manifest(model_session(), SWEEP, tmp_path)
        assert not journal.exists()
        raw = json.loads((tmp_path / "manifest.json").read_text())
        assert all(cell["status"] == STATUS_DONE for cell in raw["cells"])

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        from repro.experiments.manifest import JOURNAL_FILENAME

        with pytest.raises(Interrupt):
            run_with_manifest(
                model_session(), SWEEP, tmp_path, progress=interrupt_after(2)
            )
        journal = tmp_path / JOURNAL_FILENAME
        journal.write_text(journal.read_text() + '{"spec_hash": "tru')
        counts = RunManifest.load(tmp_path).status_counts()
        assert counts[STATUS_DONE] == 2  # the torn line is simply dropped
        _envelopes, manifest = run_with_manifest(model_session(), SWEEP, tmp_path)
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}

    def test_resume_executes_only_pending_cells(self, tmp_path, monkeypatch):
        with pytest.raises(Interrupt):
            run_with_manifest(
                model_session(), SWEEP, tmp_path, progress=interrupt_after(2)
            )
        executed = []
        real = session_module.execute_spec

        def counting(machine, spec):
            executed.append(spec)
            return real(machine, spec)

        monkeypatch.setattr(session_module, "execute_spec", counting)
        # serial: patched counters in worker processes would be invisible
        envelopes, manifest = run_with_manifest(
            model_session(), SWEEP, tmp_path, backend="serial"
        )
        assert len(executed) == len(SWEEP.expand()) - 2
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}
        assert len(envelopes) == len(SWEEP.expand())

    def test_resumed_store_is_byte_identical_to_uninterrupted(self, tmp_path):
        broken = tmp_path / "interrupted"
        clean = tmp_path / "clean"
        with pytest.raises(Interrupt):
            run_with_manifest(
                model_session(), SWEEP, broken, progress=interrupt_after(1)
            )
        run_with_manifest(model_session(), SWEEP, broken)  # resume
        run_with_manifest(model_session(), SWEEP, clean)  # reference
        resumed = [e.to_json() for e in load_envelopes(broken)]
        reference = [e.to_json() for e in load_envelopes(clean)]
        assert resumed == reference

    def test_a_deleted_done_file_is_re_executed_without_quarantine(
        self, tmp_path, monkeypatch
    ):
        store, clean = tmp_path / "store", tmp_path / "clean"
        _, manifest = run_with_manifest(model_session(), SWEEP, store)
        run_with_manifest(model_session(), SWEEP, clean)  # reference
        victim = SWEEP.expand()[1]
        (store / manifest.cells[victim.spec_hash()].path).unlink()
        executed = []
        real = session_module.execute_spec

        def counting(machine, spec):
            executed.append(spec)
            return real(machine, spec)

        monkeypatch.setattr(session_module, "execute_spec", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # serial: patched counters in worker processes would be invisible
            run_with_manifest(model_session(), SWEEP, store, backend="serial")
        assert executed == [victim]
        assert not (store / ".quarantine").exists()

        def files(root):
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }

        assert files(store) == files(clean)

    def test_load_done_false_returns_only_executed_cells(self, tmp_path):
        with pytest.raises(Interrupt):
            run_with_manifest(
                model_session(), SWEEP, tmp_path, progress=interrupt_after(1)
            )
        envelopes, manifest = run_with_manifest(
            model_session(), SWEEP, tmp_path, load_done=False
        )
        assert len(envelopes) == len(SWEEP.expand()) - 1  # skipped cell not re-read
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}

    def test_mismatch_error_mode_refuses_other_sessions(self, tmp_path):
        run_with_manifest(model_session(), SWEEP, tmp_path)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_with_manifest(
                Session(numerics="full"), SWEEP, tmp_path, on_mismatch="error"
            )

    def test_mismatch_default_replaces_manifest_keeps_envelopes(self, tmp_path):
        """Mixed-session stores stay legal: --out under a new session starts
        a fresh manifest; the old run's envelope files stay on disk."""
        small = SweepSpec(
            kind="stream", chips=("M1",), impl_keys=("gpu",), n_elements=1 << 14,
            repeats=2,
        )
        run_with_manifest(model_session(), small, tmp_path)
        envelopes, manifest = run_with_manifest(
            Session(numerics="full"), SWEEP, tmp_path
        )
        # the new manifest describes only the new run...
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}
        assert {r.kind for r in manifest.cells.values()} == {"gemm"}
        # ...but the first session's envelopes are still in the store
        kinds = {e.kind for e in load_envelopes(tmp_path)}
        assert kinds == {"stream", "gemm"}

    def test_a_manifest_from_another_version_is_refused_untouched(
        self, tmp_path
    ):
        """Even under the default "replace": a 1.1.0 store extended by this
        version would hold envelopes no version can read back together."""
        run_with_manifest(model_session(), SWEEP, tmp_path)
        path = tmp_path / "manifest.json"
        data = json.loads(path.read_text())
        data["session"]["repro_version"] = "1.1.0"
        path.write_text(json.dumps(data))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(VersionMismatchError, match="1.1.0"):
            run_with_manifest(model_session(), SWEEP, tmp_path)
        after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before

    def test_bad_mismatch_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="on_mismatch"):
            run_with_manifest(
                model_session(), SWEEP, tmp_path, on_mismatch="merge"
            )

    def test_grid_can_grow_across_runs(self, tmp_path):
        small = SweepSpec(
            kind="gemm", chips=("M1",), impl_keys=("gpu-mps",), sizes=(256,)
        )
        run_with_manifest(model_session(), small, tmp_path)
        envelopes, manifest = run_with_manifest(model_session(), SWEEP, tmp_path)
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}
        assert len(envelopes) == len(SWEEP.expand())

    def test_sharded_backend_checkpoints_too(self, tmp_path):
        envelopes, manifest = run_with_manifest(
            model_session(),
            SWEEP,
            tmp_path,
            backend="sharded",
            max_workers=2,
        )
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}
        reference, _ = run_with_manifest(
            model_session(), SWEEP, tmp_path / "ref", backend="serial"
        )
        assert [e.to_json() for e in envelopes] == [
            e.to_json() for e in reference
        ]


class TestFailedCells:
    """``status=failed`` semantics: durable, resumable, never silent."""

    VICTIM = SWEEP.expand()[1]

    def failing_session(self) -> Session:
        from repro.experiments import FaultPlan

        return model_session(
            fault_plan=FaultPlan.single(
                "transient", [self.VICTIM.spec_hash()], times=None
            )
        )

    def test_failed_status_survives_a_save_load_round_trip(self, tmp_path):
        manifest = RunManifest.create(tmp_path, model_session(), SWEEP.expand())
        error = {"error": "TransientError", "message": "boom", "attempts": 3}
        manifest.mark_failed(self.VICTIM, error)
        manifest.save()
        revived = RunManifest.load(tmp_path)
        record = revived.cells[self.VICTIM.spec_hash()]
        assert record.status == "failed"
        assert record.error == error
        assert record.path is None
        assert [r.spec_hash for r in revived.failed_cells()] == [
            self.VICTIM.spec_hash()
        ]

    def test_checkpoint_failed_is_journaled_durably(self, tmp_path):
        from repro.experiments.manifest import JOURNAL_FILENAME

        manifest = RunManifest.create(tmp_path, model_session(), SWEEP.expand())
        manifest.save()
        manifest.checkpoint_failed(self.VICTIM, {"error": "TransientError"})
        # no save(): the journal line alone must carry the failure
        line = (tmp_path / JOURNAL_FILENAME).read_text().splitlines()[-1]
        assert json.loads(line)["status"] == "failed"
        revived = RunManifest.load(tmp_path)
        assert revived.cells[self.VICTIM.spec_hash()].status == "failed"

    def test_torn_tail_after_a_failed_line_is_tolerated(self, tmp_path):
        from repro.experiments.manifest import JOURNAL_FILENAME

        manifest = RunManifest.create(tmp_path, model_session(), SWEEP.expand())
        manifest.save()
        manifest.checkpoint_failed(self.VICTIM, {"error": "TransientError"})
        journal = tmp_path / JOURNAL_FILENAME
        journal.write_text(journal.read_text() + '{"spec_hash": "tru')
        counts = RunManifest.load(tmp_path).status_counts()
        assert counts["failed"] == 1  # the torn line is simply dropped

    def test_collect_run_records_failures_and_resume_heals(self, tmp_path):
        from repro.experiments import RetryPolicy

        retry = RetryPolicy(max_retries=1, backoff_base=0.001)
        envelopes, manifest = run_with_manifest(
            self.failing_session(),
            SWEEP,
            tmp_path,
            on_error="collect",
            retry=retry,
        )
        counts = manifest.status_counts()
        assert counts["failed"] == 1
        assert counts[STATUS_DONE] == len(SWEEP.expand()) - 1
        record = manifest.cells[self.VICTIM.spec_hash()]
        assert record.error["error"] == "TransientError"
        assert len(envelopes) == len(SWEEP.expand()) - 1

        # resume without the fault: exactly the failed cell re-executes,
        # and the healed store is byte-identical to an undisturbed one
        healed, manifest = run_with_manifest(model_session(), SWEEP, tmp_path)
        assert manifest.status_counts() == {STATUS_DONE: len(SWEEP.expand())}
        reference, _ = run_with_manifest(
            model_session(), SWEEP, tmp_path / "ref"
        )
        assert [e.to_json() for e in healed] == [
            e.to_json() for e in reference
        ]

    def test_raise_mode_still_checkpoints_the_failure(self, tmp_path):
        from repro.errors import SimulationError
        from repro.experiments import RetryPolicy

        with pytest.raises(SimulationError, match="1 of"):
            run_with_manifest(
                self.failing_session(),
                SWEEP,
                tmp_path,
                retry=RetryPolicy(max_retries=0, backoff_base=0.001),
            )
        counts = RunManifest.load(tmp_path).status_counts()
        assert counts["failed"] == 1  # durable even though the call raised
