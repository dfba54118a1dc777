"""Shared fixtures for the test suite.

Machines come in two flavours: ``machine`` (noise-free, FULL numerics — for
deterministic correctness tests on small problems) and ``study_machine``
(paper-default noise, SAMPLED numerics — for calibration/tolerance tests).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.calibration import paper
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig


def make_exact_machine(chip: str = "M1") -> Machine:
    """Noise-free machine with FULL numerics."""
    return Machine.for_chip(chip, noise_sigma=0.0, numerics=NumericsConfig.full())


def make_study_machine(chip: str = "M1", *, seed: int = 0) -> Machine:
    """Paper-configuration machine (default noise, sampled numerics)."""
    return Machine.for_chip(chip, seed=seed)


def make_model_machine(chip: str = "M1") -> Machine:
    """Noise-free machine that skips numerics (timing-model tests)."""
    return Machine.for_chip(
        chip, noise_sigma=0.0, numerics=NumericsConfig.model_only()
    )


def window_pairs(starts, ends) -> tuple[tuple[float, float], ...]:
    """A sequence ``assemble`` that checks the ``(starts, ends)`` rows — two
    1-D float64 arrays of one length — and returns them as clock windows."""
    assert isinstance(starts, np.ndarray) and isinstance(ends, np.ndarray)
    assert starts.dtype == ends.dtype == np.float64
    assert starts.ndim == ends.ndim == 1 and starts.shape == ends.shape
    return tuple(zip(starts.tolist(), ends.tolist()))


@pytest.fixture
def machine() -> Machine:
    return make_exact_machine("M1")


@pytest.fixture(params=list(paper.CHIPS))
def each_chip_machine(request) -> Machine:
    return make_exact_machine(request.param)


@pytest.fixture(params=list(paper.CHIPS))
def each_chip_model_machine(request) -> Machine:
    return make_model_machine(request.param)


@pytest.fixture
def study_machine() -> Machine:
    return make_study_machine("M1")


def _v1_result(result: dict) -> dict:
    """A schema-2 result dict in the schema-1 layout (per-repetition dicts)."""
    data = dict(result)
    if "elapsed_ns" in data:
        data["repetitions"] = [
            {"repetition": rep, "elapsed_ns": ns}
            for rep, ns in enumerate(data.pop("elapsed_ns"))
        ]
    if "gemm" in data:  # powered GEMM nests its GEMM result
        data["gemm"] = _v1_result(data["gemm"])
    return data


def downgrade_store_to_1_1_0(root: pathlib.Path) -> list[pathlib.Path]:
    """Rewrite every envelope file under ``root`` as repro 1.1.0 wrote it.

    Schema 1, per-repetition ``{"repetition", "elapsed_ns"}`` dicts,
    1.1.0 version stamps and indented JSON — a stale store for the tests of
    its refusal.  Returns the rewritten paths.
    """
    paths = []
    for path in sorted(root.rglob("*.json")):
        relative = path.relative_to(root)
        if path.name == "manifest.json" or relative.parts[0].startswith("."):
            continue
        data = json.loads(path.read_text())
        data["schema"] = 1
        data["result"] = _v1_result(data["result"])
        data["meta"]["repro_version"] = "1.1.0"
        data["meta"]["session"]["repro_version"] = "1.1.0"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
