"""Golden envelope bytes: small committed grids every change must reproduce.

The cross-backend suites compare backends within one checkout, so a change
that moves every backend's bytes together passes them.  These tests pin the
bytes themselves, in two slices:

* ``envelopes.jsonl`` — six cells of every builtin workload run on a fresh
  model-only session;
* ``sampled_envelopes.jsonl`` — the protocol workloads (GEMM, powered-GEMM,
  STREAM) under the default ``sampled`` numerics profile: every GEMM
  implementation at a fully-verified size, the two paper headline
  implementations above ``full_threshold`` (the sampled-rows branch), and
  both STREAM targets.

Each file starts with a header line recording the ``repro.__version__``
and ``ENVELOPE_SCHEMA_VERSION`` it was generated under; every further line
is one envelope's compact JSON, which must match byte for byte while both
recorded values are current.  No backend is named, so running the suite
under ``REPRO_BACKEND=serial``, ``vectorized`` and ``sharded`` checks each
backend against the same files.

An intended byte change bumps one of the two versions first, then
regenerates the files with::

    PYTHONPATH=src python tests/golden/test_golden_envelopes.py

which refuses to overwrite a file whose recorded versions are current.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import __version__
from repro.core.gemm.registry import implementation_keys
from repro.experiments import (
    ENVELOPE_SCHEMA_VERSION,
    GemmSpec,
    PoweredGemmSpec,
    Session,
    StreamSpec,
    SweepSpec,
)
from repro.workloads import workload_kinds

GOLDEN = pathlib.Path(__file__).with_name("envelopes.jsonl")
SAMPLED_GOLDEN = pathlib.Path(__file__).with_name("sampled_envelopes.jsonl")

#: The builtin workloads, in registration order.
KINDS = ("gemm", "powered-gemm", "stream", "spmv", "stencil", "batched-gemm")
SEED = 7
CELLS_PER_KIND = 6
CHIPS = ("M1", "M4")


def golden_specs() -> list:
    """The pinned grid: the first six cells of each kind's M1/M4 sweep."""
    return [
        spec
        for kind in KINDS
        for spec in SweepSpec(
            kind=kind,
            chips=CHIPS,
            repeats=3,
            numerics="model-only",
            seed=SEED,
        ).expand()[:CELLS_PER_KIND]
    ]


def sampled_specs() -> list:
    """The pinned ``sampled`` slice of the three protocol workloads."""
    specs: list = [
        GemmSpec(chip=chip, seed=SEED, impl_key=key, n=64, repeats=2)
        for chip in CHIPS
        for key in implementation_keys()
    ]
    specs += [
        cls(chip=chip, seed=SEED, impl_key=key, n=2048, repeats=2)
        for cls in (GemmSpec, PoweredGemmSpec)
        for chip in CHIPS
        for key in ("gpu-mps", "cpu-accelerate")
    ]
    specs += [
        StreamSpec(
            chip=chip, seed=SEED, target=target, n_elements=1 << 16, repeats=2
        )
        for chip in CHIPS
        for target in ("cpu", "gpu")
    ]
    return specs


#: golden file -> (session numerics profile, grid builder)
SLICES = {
    GOLDEN: ("model-only", golden_specs),
    SAMPLED_GOLDEN: ("sampled", sampled_specs),
}


def current_versions() -> dict:
    """The versions a slice generated now records in its header line."""
    return {"repro_version": __version__, "schema": ENVELOPE_SCHEMA_VERSION}


def recorded_versions(path: pathlib.Path) -> dict:
    """The versions a committed slice was generated under."""
    return json.loads(path.read_text().splitlines()[0])


def golden_lines(path: pathlib.Path = GOLDEN) -> list[str]:
    """One compact envelope JSON line per cell of a slice, in grid order."""
    numerics, specs = SLICES[path]
    session = Session(numerics=numerics, seed=SEED)
    return [env.to_json(indent=None) for env in session.run_batch(specs())]


def golden_file_lines(path: pathlib.Path = GOLDEN) -> list[str]:
    """The committed envelope lines of one slice (header skipped)."""
    return path.read_text().splitlines()[1:]


def write_slice(path: pathlib.Path, target: "pathlib.Path | None" = None) -> None:
    """Regenerate one slice into ``target`` (default: the slice itself).

    Refuses, with ``SystemExit``, while ``target`` records the current
    versions: bytes may only change under a version bump.
    """
    target = target or path
    if target.exists() and recorded_versions(target) == current_versions():
        raise SystemExit(
            f"refusing to overwrite {target}: it already records repro "
            f"{__version__} and envelope schema {ENVELOPE_SCHEMA_VERSION}; "
            f"bump __version__ or ENVELOPE_SCHEMA_VERSION for a byte change"
        )
    header = json.dumps(current_versions(), sort_keys=True)
    target.write_text("".join(line + "\n" for line in [header, *golden_lines(path)]))


def test_grid_covers_every_builtin_workload():
    assert set(KINDS) <= set(workload_kinds())
    kinds = {json.loads(line)["spec"]["kind"] for line in golden_file_lines()}
    assert kinds == set(KINDS)


def test_sampled_slice_pins_sampled_verification():
    envelopes = [json.loads(line) for line in golden_file_lines(SAMPLED_GOLDEN)]
    assert {env["spec"]["kind"] for env in envelopes} == {
        "gemm",
        "powered-gemm",
        "stream",
    }
    assert {env["meta"]["session"]["numerics"]["policy"] for env in envelopes} == {
        "sampled"
    }
    # n=2048 is above full_threshold, so these cells took the sampled-rows
    # branch of verification.
    assert [
        env["result"]["verified"]
        for env in envelopes
        if env["spec"]["kind"] == "gemm" and env["spec"]["n"] == 2048
    ] == [True] * 4


@pytest.mark.parametrize("path", list(SLICES), ids=lambda path: path.name)
def test_envelopes_match_golden_bytes(path):
    recorded = recorded_versions(path)
    assert recorded == current_versions(), (
        f"{path.name} was generated under {recorded}, not {current_versions()}: "
        f"regenerate it for the bump"
    )
    expected = golden_file_lines(path)
    actual = golden_lines(path)
    for want, got in zip(expected, actual):
        if got != want:
            spec_hash = json.loads(want)["meta"]["spec_hash"]
            pytest.fail(
                f"envelope {spec_hash} differs from its golden line while "
                f"repro {__version__} and envelope schema "
                f"{ENVELOPE_SCHEMA_VERSION} match the recorded versions; an "
                f"intended byte change bumps one of them\n"
                f"golden: {want}\nactual: {got}"
            )
    assert len(actual) == len(expected)


def test_regeneration_refuses_current_versions(tmp_path):
    target = tmp_path / GOLDEN.name
    target.write_text(GOLDEN.read_text())
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        write_slice(GOLDEN, target)
    assert target.read_text() == GOLDEN.read_text()


def test_regeneration_after_a_bump_reproduces_the_slice(tmp_path):
    target = tmp_path / GOLDEN.name
    stale = {**current_versions(), "repro_version": "0.0.0"}
    target.write_text(json.dumps(stale) + "\n")
    write_slice(GOLDEN, target)
    assert target.read_text() == GOLDEN.read_text()


if __name__ == "__main__":
    for path in SLICES:
        write_slice(path)
        print(f"wrote {path}")
