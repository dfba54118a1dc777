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

Each envelope's compact JSON must equal its line byte for byte.  No backend
is named, so running the suite under ``REPRO_BACKEND=serial``,
``vectorized`` and ``sharded`` checks each backend against the same files.

An intended byte change regenerates the files (and bumps the version that
explains it) with::

    PYTHONPATH=src python tests/golden/test_golden_envelopes.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.gemm.registry import implementation_keys
from repro.experiments import (
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


def golden_lines(path: pathlib.Path = GOLDEN) -> list[str]:
    """One compact envelope JSON line per cell of a slice, in grid order."""
    numerics, specs = SLICES[path]
    session = Session(numerics=numerics, seed=SEED)
    return [env.to_json(indent=None) for env in session.run_batch(specs())]


def golden_file_lines(path: pathlib.Path = GOLDEN) -> list[str]:
    """The committed lines of one slice."""
    return path.read_text().splitlines()


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
    expected = golden_file_lines(path)
    actual = golden_lines(path)
    for want, got in zip(expected, actual):
        if got != want:
            spec_hash = json.loads(want)["meta"]["spec_hash"]
            pytest.fail(
                f"envelope {spec_hash} differs from its golden line\n"
                f"golden: {want}\nactual: {got}"
            )
    assert len(actual) == len(expected)


if __name__ == "__main__":
    for path in SLICES:
        path.write_text("".join(line + "\n" for line in golden_lines(path)))
        print(f"wrote {path}")
