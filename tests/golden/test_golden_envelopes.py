"""Golden envelope bytes: small committed grids every change must reproduce.

The cross-backend suites compare backends within one checkout, so a change
that moves every backend's bytes together passes them.  These tests pin the
bytes themselves, in four slices:

* ``envelopes.jsonl`` — six cells of every builtin workload run on a fresh
  model-only session;
* ``sampled_envelopes.jsonl`` — the protocol workloads (GEMM, powered-GEMM,
  STREAM) under the default ``sampled`` numerics profile: every GEMM
  implementation at a fully-verified size, the two paper headline
  implementations above ``full_threshold`` (the sampled-rows branch), and
  both STREAM targets;
* ``protocol_envelopes.jsonl`` — 200 model-only cells on all four study
  chips at the default noise: every GEMM implementation at three sizes and
  the paper's powered-GEMM implementations at two, five repetitions each
  (the parity suite's grids), both STREAM targets at two array sizes and
  two repetition counts, and two cells per chip of each fast-path workload;
  it pins every GEMM and STREAM dispatch the lowerings build;
* ``calibration.jsonl`` — two calibration fits, the paper fit and a short
  synthetic self-fit: each fit's ``CalibrationResult`` JSON, then every
  envelope of its final scoring frame at full precision (the result JSON
  rounds to six digits).

Each file starts with a header line recording the ``repro.__version__``
and ``ENVELOPE_SCHEMA_VERSION`` it was generated under; every further line
is one compact JSON record, which must match byte for byte while both
recorded values are current.  No backend is named, so running the suite
under ``REPRO_BACKEND=serial``, ``vectorized`` and ``sharded`` checks each
backend against the first three files (calibration runs on its own default
backend).

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
from repro.calibrate import (
    MeasuredTrace,
    default_spec,
    run_calibration,
    synthesize_trace,
)
from repro.core.gemm.registry import (
    implementation_keys,
    paper_implementation_keys,
)
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
PROTOCOL_GOLDEN = pathlib.Path(__file__).with_name("protocol_envelopes.jsonl")
CALIBRATION_GOLDEN = pathlib.Path(__file__).with_name("calibration.jsonl")

#: The builtin workloads, in registration order.
KINDS = ("gemm", "powered-gemm", "stream", "spmv", "stencil", "batched-gemm")
SEED = 7
CELLS_PER_KIND = 6
CHIPS = ("M1", "M4")
STUDY_CHIPS = ("M1", "M2", "M3", "M4")


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


def protocol_specs() -> list:
    """The pinned model-only slice over all four chips: 200 cells."""
    specs: list = [
        GemmSpec(chip=chip, seed=SEED, impl_key=key, n=n, repeats=5)
        for chip in STUDY_CHIPS
        for key in implementation_keys()
        for n in (64, 256, 2048)
    ]
    specs += [
        PoweredGemmSpec(chip=chip, seed=SEED, impl_key=key, n=n, repeats=5)
        for chip in STUDY_CHIPS
        for key in paper_implementation_keys()
        for n in (2048, 4096)
    ]
    specs += [
        StreamSpec(
            chip=chip,
            seed=SEED,
            target=target,
            n_elements=n_elements,
            repeats=repeats,
        )
        for chip in STUDY_CHIPS
        for target in ("cpu", "gpu")
        for n_elements in (1 << 14, 1 << 16)
        for repeats in (1, 3)
    ]
    for kind in ("spmv", "stencil", "batched-gemm"):
        for chip in STUDY_CHIPS:
            cells = SweepSpec(
                kind=kind, chips=(chip,), repeats=3, seed=SEED
            ).expand()
            specs += [cells[0], cells[len(cells) // 2]]
    return specs


def envelope_lines(numerics: str, specs: list) -> list[str]:
    """One compact envelope JSON line per cell, in grid order."""
    session = Session(numerics=numerics, seed=SEED)
    return [env.to_json() for env in session.run_batch(specs)]


def calibration_fits() -> list:
    """The pinned fits: the paper fit, then a short synthetic self-fit."""
    return [
        run_calibration(MeasuredTrace.from_paper()),
        run_calibration(
            synthesize_trace(), default_spec(coarse_points=7, refine_rounds=3)
        ),
    ]


def calibration_lines() -> list[str]:
    """Per fit: its result JSON, then each final-frame envelope."""
    lines: list[str] = []
    for fit in calibration_fits():
        lines.append(fit.to_json().rstrip("\n"))
        lines += [row.envelope.to_json() for row in fit.frame]
    return lines


#: golden file -> the generator of its lines (header excluded)
SLICES = {
    GOLDEN: lambda: envelope_lines("model-only", golden_specs()),
    SAMPLED_GOLDEN: lambda: envelope_lines("sampled", sampled_specs()),
    PROTOCOL_GOLDEN: lambda: envelope_lines("model-only", protocol_specs()),
    CALIBRATION_GOLDEN: calibration_lines,
}


def current_versions() -> dict:
    """The versions a slice generated now records in its header line."""
    return {"repro_version": __version__, "schema": ENVELOPE_SCHEMA_VERSION}


def recorded_versions(path: pathlib.Path) -> dict:
    """The versions a committed slice was generated under."""
    return json.loads(path.read_text().splitlines()[0])


def golden_lines(path: pathlib.Path = GOLDEN) -> list[str]:
    """The lines a slice generates now (header excluded)."""
    return SLICES[path]()


def golden_file_lines(path: pathlib.Path = GOLDEN) -> list[str]:
    """The committed lines of one slice (header skipped)."""
    return path.read_text().splitlines()[1:]


def line_id(line: str) -> str:
    """What a golden line records: an envelope's spec hash, else its kind."""
    record = json.loads(line)
    return record["meta"]["spec_hash"] if "meta" in record else record["kind"]


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


def test_protocol_slice_pins_every_chip_and_workload():
    envelopes = [json.loads(line) for line in golden_file_lines(PROTOCOL_GOLDEN)]
    assert len(envelopes) == 200
    assert {env["spec"]["kind"] for env in envelopes} == set(KINDS)
    assert {env["spec"]["chip"] for env in envelopes} == set(STUDY_CHIPS)
    assert {env["meta"]["session"]["numerics"]["policy"] for env in envelopes} == {
        "model-only"
    }
    stream = [env for env in envelopes if env["spec"]["kind"] == "stream"]
    assert len(stream) == 32


def test_calibration_slice_pins_both_fits():
    records = [json.loads(line) for line in golden_file_lines(CALIBRATION_GOLDEN)]
    results = [i for i, record in enumerate(records) if "meta" not in record]
    assert [records[i]["trace_source"] for i in results] == ["paper", "synthetic"]
    assert results[0] == 0
    envelopes = [record for record in records if "meta" in record]
    assert {env["spec"]["kind"] for env in envelopes} == {
        "gemm",
        "powered-gemm",
        "stream",
    }
    # every final scoring cell runs on a fitted (derived) chip
    assert all("+CAL" in env["spec"]["chip"] for env in envelopes)


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
            pytest.fail(
                f"{path.name} record {line_id(want)} differs from its golden "
                f"line while repro {__version__} and envelope schema "
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
