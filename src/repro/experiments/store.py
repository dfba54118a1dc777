"""On-disk envelope store: one JSON file per experiment cell.

The layout is deliberately boring — JSON files under a plain directory — so
results can be inspected, diffed, rsynced and re-rendered
(``repro figure2 --from results/``) without any database.  Two layouts are
understood:

* **sharded** (the default written since the resumable-run work):
  ``<kind>/<hash-prefix>/<kind>-<spec_hash>.json`` — thousands-of-cell
  campaign grids stay listable, and a cell's path is computable from its
  spec alone (what the run manifest indexes);
* **flat** (the historical layout): ``<kind>-<spec_hash>.json`` directly in
  the root.

:func:`load_envelopes` reads both — mixed directories included.  Each file
holds one envelope as one line of compact canonical JSON
(:meth:`ResultEnvelope.to_json`).  A ``manifest.json`` written by
:mod:`repro.experiments.manifest` is skipped, as is anything under a
dot-directory (``.service/`` holds the experiment service's job records,
``.quarantine/`` the evidence of torn writes — reserved metadata, never
envelopes).  A truncated or corrupt file is **quarantined** — moved to
``<store>/.quarantine/`` with a reason file, under a warning naming the
path — instead of aborting the scan: one torn write must not take a
thousand good cells hostage, and the quarantined cell re-executes on the
next manifest resume.  A valid envelope of another schema is not corrupt
but stale: the scan raises :class:`~repro.errors.VersionMismatchError` and
moves no file (stores are caches of pure functions; re-run into a fresh
directory).

Stores are built for **concurrent readers over one writer**: every envelope
lands via :func:`atomic_write_text` (temp file + ``os.replace``), so a
reader never observes a half-written file, and a file that vanishes between
the directory listing and its read (the writer replacing it, a cleanup
racing the scan) is skipped rather than raised — the TOCTOU discipline the
long-running experiment service relies on.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import warnings
from typing import Iterable

from repro.errors import ConfigurationError, VersionMismatchError
from repro.experiments.envelope import ResultEnvelope

__all__ = [
    "MANIFEST_FILENAME",
    "QUARANTINE_DIRNAME",
    "SHARD_PREFIX_LEN",
    "atomic_write_text",
    "envelope_filename",
    "envelope_path",
    "quarantine_file",
    "save_envelopes",
    "load_envelopes",
]

#: Reserved file name of the run manifest living alongside envelopes —
#: never parsed as an envelope.
MANIFEST_FILENAME = "manifest.json"

#: Reserved dot-directory corrupt envelope files are moved into — evidence
#: preserved for debugging, never re-scanned as results.
QUARANTINE_DIRNAME = ".quarantine"

#: Spec-hash prefix length of the sharded layout's second directory level.
SHARD_PREFIX_LEN = 2


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Concurrent readers — a service's query surface scanning the store while
    cells land, ``--from`` renders racing a run — either see the previous
    complete content or the new complete content, never a torn file.  The
    temp file lives in the target directory (``os.replace`` must not cross
    filesystems) with a non-``.json`` suffix so store scans never list it.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already replaced or gone
            pass
        raise
    return target


def quarantine_file(
    root: str | pathlib.Path, path: str | pathlib.Path, *, reason: str
) -> pathlib.Path | None:
    """Move a corrupt store file into ``<root>/.quarantine/``, with evidence.

    The file keeps its name; a sibling ``<name>.reason.txt`` records why it
    was pulled.  Emits a :class:`UserWarning` naming both the offending
    path and its quarantine destination — corruption is surfaced, never
    silent — and returns the destination.  A store that cannot be written
    (read-only mount, permissions) degrades to warn-and-skip: the reader's
    scan must survive either way, so ``None`` comes back and the corrupt
    file stays put.
    """
    source = pathlib.Path(path)
    quarantine = pathlib.Path(root) / QUARANTINE_DIRNAME
    destination = quarantine / source.name
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        os.replace(source, destination)
        destination.with_name(destination.name + ".reason.txt").write_text(
            reason + "\n"
        )
    except OSError as exc:
        warnings.warn(
            f"corrupt envelope file {source} could not be quarantined "
            f"({exc}); skipping it: {reason}",
            stacklevel=2,
        )
        return None
    warnings.warn(
        f"corrupt envelope file {source} quarantined to {destination}: "
        f"{reason}",
        stacklevel=2,
    )
    return destination


def envelope_filename(envelope: ResultEnvelope) -> str:
    """Canonical file name of one envelope (kind + spec hash)."""
    return f"{envelope.kind}-{envelope.spec_hash}.json"


def envelope_path(
    root: str | pathlib.Path, envelope: ResultEnvelope, *, sharded: bool = True
) -> pathlib.Path:
    """Canonical path of one envelope under ``root``.

    Sharded: ``<kind>/<hash-prefix>/<kind>-<hash>.json``; flat puts the
    file directly in ``root`` (the pre-manifest layout).
    """
    name = envelope_filename(envelope)
    base = pathlib.Path(root)
    if not sharded:
        return base / name
    return base / envelope.kind / envelope.spec_hash[:SHARD_PREFIX_LEN] / name


def save_envelopes(
    directory: str | pathlib.Path,
    envelopes: Iterable[ResultEnvelope],
    *,
    sharded: bool = True,
) -> list[pathlib.Path]:
    """Write each envelope to ``directory`` (created if missing).

    Identical specs overwrite their previous file — the store holds at most
    one result per (spec, content) identity.  Returns the written paths.
    """
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for envelope in envelopes:
        path = envelope_path(root, envelope, sharded=sharded)
        atomic_write_text(path, envelope.to_json() + "\n")
        written.append(path)
    return written


def load_envelopes(directory: str | pathlib.Path) -> list[ResultEnvelope]:
    """Read every envelope under ``directory``, sorted by path.

    Both store layouts (and mixtures of the two) load; the run manifest and
    anything under a dot-directory (reserved service metadata such as
    ``.service/``) are skipped.  A cell present in *both* layouts — e.g. a
    legacy flat store migrated in place — loads once, preferring the
    sharded copy, because the store holds at most one result per file name
    (kind + spec hash) by contract.  A corrupt file — truncated by a torn
    write, or simply not an envelope — is quarantined under
    ``<store>/.quarantine/`` with a reason file, warning with the offending
    path, and the scan continues: one bad cell must not take the rest of
    the store down.  An envelope of another schema raises
    :class:`~repro.errors.VersionMismatchError`; corrupt files are only
    quarantined once the whole scan has passed, so a stale store is left
    exactly as it was.  A file that simply *vanished* between the listing
    and the read (a concurrent writer replacing it, a cleanup racing the
    scan) is skipped silently: listings of a live store are inherently a
    snapshot, and raising on the race would make every reader of a served
    store flaky.
    """
    root = pathlib.Path(directory)
    if not root.is_dir():
        raise ConfigurationError(f"envelope directory {root} does not exist")
    by_name: dict[str, pathlib.Path] = {}
    for path in sorted(root.rglob("*.json")):
        if path.name == MANIFEST_FILENAME:
            continue
        relative = path.relative_to(root)
        if any(part.startswith(".") for part in relative.parts):
            continue
        current = by_name.get(path.name)
        # deeper path wins: sharded copies shadow flat duplicates
        if current is None or len(path.parts) > len(current.parts):
            by_name[path.name] = path
    envelopes: list[ResultEnvelope] = []
    corrupt: list[tuple[pathlib.Path, ConfigurationError]] = []
    for path in sorted(by_name.values()):
        try:
            envelopes.append(ResultEnvelope.load(path))
        except VersionMismatchError:
            raise
        except ConfigurationError as exc:
            if isinstance(exc.__cause__, FileNotFoundError):
                continue  # listed, then gone: a writer won the race
            corrupt.append((path, exc))
    for path, exc in corrupt:
        quarantine_file(root, path, reason=str(exc))
    return envelopes
