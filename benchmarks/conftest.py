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
from repro.study import get_figure, run_study


def model_machine(chip: str, *, seed: int = 0) -> Machine:
    """Paper-default machine with numerics skipped (timing model only)."""
    return Machine.for_chip(chip, seed=seed, numerics=NumericsConfig.model_only())


def model_session(*, seed: int = 0, **kwargs) -> Session:
    """A fresh model-only session (one per benchmark round, so the result
    cache never short-circuits the measured work)."""
    return Session(numerics="model-only", seed=seed, **kwargs)


def figure_series(name: str, chips, session, *, impl_keys=None, **axes) -> dict:
    """Figure ``name``'s series from a study of its grid run on ``session``.

    ``impl_keys`` restricts both the grid and the series' scaffold; the
    other keyword arguments override the figure's axis defaults.
    """
    figure = get_figure(name)
    if impl_keys is not None:
        axes["impl_keys"] = tuple(impl_keys)
    frame = run_study(figure.study(chips, seed=session.seed, **axes), session=session)
    return figure.series(frame, chips=chips, impl_keys=impl_keys)


def print_series(title: str, data: dict, unit: str) -> None:
    print(f"\n{title} ({unit})")
    for chip, impls in data.items():
        print(f"  {chip}:")
        for impl, series in impls.items():
            cells = "  ".join(f"n={n}:{v:9.1f}" for n, v in sorted(series.items()))
            print(f"    {impl:18s} {cells}")
