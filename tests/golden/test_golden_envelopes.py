"""Golden envelope bytes: a small committed grid every change must reproduce.

The cross-backend suites compare backends within one checkout, so a change
that moves every backend's bytes together passes them.  This test pins the
bytes themselves: six cells of every builtin workload run on a fresh
model-only session, and each envelope's compact JSON must equal its line in
``envelopes.jsonl`` byte for byte.  No backend is named, so running the
suite under ``REPRO_BACKEND=serial``, ``vectorized`` and ``sharded`` checks
each backend against the same file.

An intended byte change regenerates the file (and bumps the version that
explains it) with::

    PYTHONPATH=src python tests/golden/test_golden_envelopes.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import Session, SweepSpec
from repro.workloads import workload_kinds

GOLDEN = pathlib.Path(__file__).with_name("envelopes.jsonl")

#: The builtin workloads, in registration order.
KINDS = ("gemm", "powered-gemm", "stream", "spmv", "stencil", "batched-gemm")
SEED = 7
CELLS_PER_KIND = 6


def golden_specs() -> list:
    """The pinned grid: the first six cells of each kind's M1/M4 sweep."""
    return [
        spec
        for kind in KINDS
        for spec in SweepSpec(
            kind=kind,
            chips=("M1", "M4"),
            repeats=3,
            numerics="model-only",
            seed=SEED,
        ).expand()[:CELLS_PER_KIND]
    ]


def golden_lines() -> list[str]:
    """One compact envelope JSON line per golden cell, in grid order."""
    session = Session(numerics="model-only", seed=SEED)
    return [env.to_json(indent=None) for env in session.run_batch(golden_specs())]


def golden_file_lines() -> list[str]:
    """The committed golden lines."""
    return GOLDEN.read_text().splitlines()


def test_grid_covers_every_builtin_workload():
    assert set(KINDS) <= set(workload_kinds())
    kinds = {json.loads(line)["spec"]["kind"] for line in golden_file_lines()}
    assert kinds == set(KINDS)


def test_envelopes_match_golden_bytes():
    expected = golden_file_lines()
    actual = golden_lines()
    for want, got in zip(expected, actual):
        if got != want:
            spec_hash = json.loads(want)["meta"]["spec_hash"]
            pytest.fail(
                f"envelope {spec_hash} differs from its golden line\n"
                f"golden: {want}\nactual: {got}"
            )
    assert len(actual) == len(expected)


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in golden_lines()))
    print(f"wrote {GOLDEN}")
