"""Store robustness: layouts, corrupt files, and the manifest exclusion."""

import json

import pytest

from repro.errors import ConfigurationError, VersionMismatchError
from repro.experiments import (
    GemmSpec,
    ResultEnvelope,
    Session,
    atomic_write_text,
    envelope_filename,
    envelope_path,
    load_envelopes,
    save_envelopes,
)
from repro.study import ResultFrame

from tests.conftest import downgrade_store_to_1_1_0


@pytest.fixture(scope="module")
def envelopes():
    session = Session(numerics="model-only")
    return [
        session.run(GemmSpec(chip="M1", impl_key="gpu-mps", n=n))
        for n in (256, 512, 1024)
    ]


class TestLayouts:
    def test_sharded_is_the_default_layout(self, tmp_path, envelopes):
        paths = save_envelopes(tmp_path, envelopes)
        for env, path in zip(envelopes, paths):
            assert path == tmp_path / env.kind / env.spec_hash[:2] / envelope_filename(env)
        loaded = load_envelopes(tmp_path)
        assert {e.to_json() for e in loaded} == {e.to_json() for e in envelopes}

    def test_flat_layout_still_writes_and_loads(self, tmp_path, envelopes):
        paths = save_envelopes(tmp_path, envelopes, sharded=False)
        assert all(path.parent == tmp_path for path in paths)
        loaded = load_envelopes(tmp_path)
        assert {e.spec_hash for e in loaded} == {e.spec_hash for e in envelopes}

    def test_mixed_flat_and_sharded_directories_load(self, tmp_path, envelopes):
        save_envelopes(tmp_path, envelopes[:1], sharded=False)  # legacy store
        save_envelopes(tmp_path, envelopes[1:], sharded=True)
        loaded = load_envelopes(tmp_path)
        assert {e.spec_hash for e in loaded} == {e.spec_hash for e in envelopes}

    def test_in_place_migration_does_not_duplicate_cells(self, tmp_path, envelopes):
        """A cell in both layouts loads once (the sharded copy wins)."""
        save_envelopes(tmp_path, envelopes, sharded=False)
        save_envelopes(tmp_path, envelopes, sharded=True)
        loaded = load_envelopes(tmp_path)
        assert len(loaded) == len(envelopes)
        assert {e.spec_hash for e in loaded} == {e.spec_hash for e in envelopes}

    def test_empty_directory_loads_as_empty(self, tmp_path):
        assert load_envelopes(tmp_path) == []

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_envelopes(tmp_path / "nope")

    def test_envelope_path_is_computable_from_the_envelope(self, tmp_path, envelopes):
        env = envelopes[0]
        assert envelope_path(tmp_path, env).name == envelope_filename(env)
        assert envelope_path(tmp_path, env, sharded=False).parent == tmp_path


class TestRobustness:
    """Corrupt files are quarantined — warned about, moved aside with a
    reason file — and never take the rest of the store down."""

    def test_truncated_file_is_quarantined_with_a_warning(
        self, tmp_path, envelopes
    ):
        save_envelopes(tmp_path, envelopes)
        victim = next(iter(sorted(tmp_path.rglob("*.json"))))
        victim.write_text(victim.read_text()[: 40])  # truncate mid-object
        with pytest.warns(UserWarning, match=str(victim)):
            loaded = load_envelopes(tmp_path)
        assert len(loaded) == len(envelopes) - 1
        quarantined = tmp_path / ".quarantine" / victim.name
        assert quarantined.is_file()
        assert not victim.exists()
        reason = quarantined.with_name(quarantined.name + ".reason.txt")
        assert victim.name in reason.read_text()

    @pytest.mark.parametrize(
        "payload", [{"hello": "world"}, [1, 2]], ids=["object", "array"]
    )
    def test_non_envelope_json_is_quarantined(self, tmp_path, envelopes, payload):
        save_envelopes(tmp_path, envelopes[:1])
        rogue = tmp_path / "notes.json"
        rogue.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="notes.json"):
            loaded = load_envelopes(tmp_path)
        assert len(loaded) == 1
        assert (tmp_path / ".quarantine" / "notes.json").is_file()

    @pytest.mark.parametrize("schema", [None, "2", 2.0, True])
    def test_missing_or_malformed_schema_is_corrupt(
        self, tmp_path, envelopes, schema
    ):
        data = envelopes[0].to_dict()
        if schema is None:
            del data["schema"]  # not "current by default"
        else:
            data["schema"] = schema
        (tmp_path / "nameless.json").write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="nameless.json"):
            loaded = load_envelopes(tmp_path)
        assert loaded == []
        assert (tmp_path / ".quarantine" / "nameless.json").is_file()

    @pytest.mark.parametrize(
        "column", [[], [10, 0], [10, 2.5], [10, True], ["10"], {"0": 10}, None]
    )
    def test_a_bad_elapsed_ns_column_is_quarantined(
        self, tmp_path, envelopes, column
    ):
        paths = save_envelopes(tmp_path, envelopes)
        data = json.loads(paths[0].read_text())
        data["result"]["elapsed_ns"] = column
        paths[0].write_text(json.dumps(data))
        with pytest.warns(UserWarning, match=paths[0].name):
            loaded = load_envelopes(tmp_path)
        assert len(loaded) == len(envelopes) - 1
        assert (tmp_path / ".quarantine" / paths[0].name).is_file()

    def test_quarantined_files_are_not_rescanned(self, tmp_path, envelopes):
        save_envelopes(tmp_path, envelopes)
        victim = next(iter(sorted(tmp_path.rglob("*.json"))))
        victim.write_text("{broken")
        with pytest.warns(UserWarning):
            load_envelopes(tmp_path)
        # second scan: the quarantine dir is reserved metadata, no warning
        loaded = load_envelopes(tmp_path)
        assert len(loaded) == len(envelopes) - 1

    def test_manifest_json_is_not_parsed_as_an_envelope(self, tmp_path, envelopes):
        save_envelopes(tmp_path, envelopes)
        (tmp_path / "manifest.json").write_text('{"schema": 1, "cells": []}')
        assert len(load_envelopes(tmp_path)) == len(envelopes)

    def test_envelope_load_names_path_for_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError) as excinfo:
            ResultEnvelope.load(tmp_path / "ghost.json")
        assert "ghost.json" in str(excinfo.value)

    def test_files_are_one_compact_canonical_line(self, tmp_path, envelopes):
        for envelope, path in zip(envelopes, save_envelopes(tmp_path, envelopes)):
            text = path.read_text()
            assert text == envelope.to_json() + "\n"
            assert text.count("\n") == 1 and ": " not in text
            data = json.loads(text)
            canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
            assert text == canonical + "\n"
            assert data["schema"] == 2
            assert data["result"]["elapsed_ns"] == list(envelope.result.elapsed_ns)


class TestStaleStore:
    """A valid store of another schema is refused, typed, and left in place.

    Stores are caches of pure functions: a 1.1.0 store is neither read nor
    "repaired" by quarantining its cells as corrupt.
    """

    @pytest.fixture()
    def stale(self, tmp_path, envelopes):
        save_envelopes(tmp_path, envelopes)
        paths = downgrade_store_to_1_1_0(tmp_path)
        return tmp_path, {path: path.read_bytes() for path in paths}

    @staticmethod
    def assert_untouched(root, files):
        assert not (root / ".quarantine").exists()
        assert {path: path.read_bytes() for path in files} == files

    def test_load_refuses_with_the_path_and_the_writer(self, stale):
        root, files = stale
        path = next(iter(files))
        with pytest.raises(VersionMismatchError) as info:
            ResultEnvelope.load(path)
        message = str(info.value)
        assert str(path) in message
        assert "1.1.0" in message and "fresh directory" in message
        assert info.value.written_by == "1.1.0"
        self.assert_untouched(root, files)

    def test_load_envelopes_refuses_and_moves_nothing(self, stale):
        root, files = stale
        with pytest.raises(VersionMismatchError, match="1.1.0"):
            load_envelopes(root)
        self.assert_untouched(root, files)

    def test_a_corrupt_file_beside_it_is_not_quarantined_either(self, stale):
        root, files = stale
        rogue = root / "zz-torn.json"
        rogue.write_text("{broken")
        with pytest.raises(VersionMismatchError):
            load_envelopes(root)
        self.assert_untouched(root, files)
        assert rogue.is_file()

    def test_frame_from_store_refuses(self, stale):
        root, files = stale
        with pytest.raises(VersionMismatchError, match="1.1.0"):
            ResultFrame.from_store(root)
        self.assert_untouched(root, files)


class TestConcurrentReaders:
    """`load_envelopes` tolerates writers and prunes racing with the scan."""

    def test_vanished_file_is_skipped_not_raised(self, tmp_path, envelopes):
        """A file listed by the scan but gone by read time (pruned by an
        operator, or an atomic-replace window) degrades to a skip.  A
        dangling symlink reproduces the race deterministically: rglob
        lists it, open() raises FileNotFoundError."""
        save_envelopes(tmp_path, envelopes)
        victim = next(iter(sorted(tmp_path.rglob("*.json"))))
        victim.unlink()
        victim.symlink_to(tmp_path / "already-pruned.json")
        loaded = load_envelopes(tmp_path)
        assert len(loaded) == len(envelopes) - 1

    def test_dot_directories_are_reserved_metadata(self, tmp_path, envelopes):
        """Service job records under `.service/` never parse as envelopes."""
        save_envelopes(tmp_path, envelopes)
        jobs = tmp_path / ".service" / "jobs"
        jobs.mkdir(parents=True)
        (jobs / "job-000001.json").write_text('{"id": "job-000001"}')
        assert len(load_envelopes(tmp_path)) == len(envelopes)


class TestAtomicWriteText:
    def test_writes_content_and_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "cell.json"
        atomic_write_text(target, '{"x": 1}\n')
        assert target.read_text() == '{"x": 1}\n'

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "cell.json"
        atomic_write_text(target, "old\n")
        atomic_write_text(target, "new\n")
        assert target.read_text() == "new\n"

    def test_leaves_no_temp_files_behind(self, tmp_path):
        atomic_write_text(tmp_path / "cell.json", "data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]
