"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it runs the same
experiment pipeline the tests exercise (in model-only numerics mode, so a
full figure costs milliseconds), asserts the reproduction targets, and prints
the rows/series the paper reports so ``pytest benchmarks/ --benchmark-only``
doubles as a reproduction report.
"""

from __future__ import annotations

from repro.experiments import Session
from repro.sim.machine import Machine
from repro.sim.policy import NumericsConfig


def model_machine(chip: str, *, seed: int = 0) -> Machine:
    """Paper-default machine with numerics skipped (timing model only)."""
    return Machine.for_chip(chip, seed=seed, numerics=NumericsConfig.model_only())


def model_session(*, seed: int = 0, **kwargs) -> Session:
    """A fresh model-only session (one per benchmark round, so the result
    cache never short-circuits the measured work)."""
    return Session(numerics="model-only", seed=seed, **kwargs)


def print_series(title: str, data: dict, unit: str) -> None:
    print(f"\n{title} ({unit})")
    for chip, impls in data.items():
        print(f"  {chip}:")
        for impl, series in impls.items():
            cells = "  ".join(f"n={n}:{v:9.1f}" for n, v in sorted(series.items()))
            print(f"    {impl:18s} {cells}")
