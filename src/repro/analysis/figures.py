"""Figures 1-4 — thin facades over the declarative study layer.

Each ``figureN_data`` function is now a facade: it builds the figure's
:class:`~repro.study.spec.StudySpec` (see
:data:`repro.study.defs.FIGURES`), runs it through a
:class:`~repro.experiments.Session` (cached, optionally parallel via
``max_workers``) and assembles the plottable series with the figure's
:class:`~repro.study.frame.ResultFrame` query.  The output is
byte-identical to the historical hand-assembled loops — enforced by the
equivalence suite in ``tests/study/test_equivalence.py``.

Pass chip names (or nothing, for the paper's four chips) plus
``session=``/``fast=``.  Off-catalog chips run through a session with a
custom ``machine_factory``, whose batches resolve to the serial backend.

The ``figureN_from_envelopes`` counterparts run the identical series query
over persisted :class:`~repro.experiments.ResultEnvelope` records, so
``repro figure2 --from results/`` re-renders without recomputing.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.calibration import paper
from repro.errors import ConfigurationError
from repro.experiments.envelope import ResultEnvelope
from repro.experiments.session import Session
from repro.study.defs import get_figure
from repro.study.frame import ResultFrame
from repro.study.spec import run_study

__all__ = [
    "make_session",
    "figure1_data",
    "figure2_data",
    "figure3_data",
    "figure4_data",
    "figure1_from_envelopes",
    "figure2_from_envelopes",
    "figure3_from_envelopes",
    "figure4_from_envelopes",
]


def make_session(*, fast: bool = False, seed: int = 0, **kwargs) -> Session:
    """A figure-building session: sampled numerics, or model-only if fast."""
    return Session(
        numerics="model-only" if fast else "sampled", seed=seed, **kwargs
    )


def _figure_data(
    name: str,
    chips: Sequence[str] | None,
    fast: bool,
    session: Session | None,
    max_workers: int | None,
    *,
    impl_keys: Sequence[str] | None = None,
    **axis_overrides,
) -> dict:
    """The shared facade body: study -> run -> series query."""
    if isinstance(chips, Mapping):
        # the removed {chip: Machine} style would otherwise run catalog
        # machines under the mapping's chip names, silently
        raise ConfigurationError(
            "figure builders take chip names, not a {chip: Machine} "
            "mapping; pass session=Session(machine_factory=...) for custom "
            "machines"
        )
    chips = tuple(chips) if chips is not None else paper.CHIPS
    if session is None:
        session = make_session(fast=fast)
    figure = get_figure(name)
    if impl_keys is not None:
        axis_overrides["impl_keys"] = tuple(impl_keys)
    study = figure.study(chips=chips, seed=session.seed, **axis_overrides)
    frame = run_study(study, session=session, max_workers=max_workers)
    return figure.series(frame, chips=chips, impl_keys=impl_keys)


# ---------------------------------------------------------------------------
# Figure 1 — STREAM
# ---------------------------------------------------------------------------
def figure1_data(
    chips: Sequence[str] | None = None,
    *,
    fast: bool = False,
    n_elements: int | None = None,
    session: Session | None = None,
    max_workers: int | None = None,
) -> dict[str, dict]:
    """Figure 1: STREAM bandwidths per chip, target and kernel.

    Returns ``{chip: {"theoretical": gbs, "cpu": {kernel: gbs}, "gpu": ...}}``.
    """
    # Fast mode skips numerics, so full-size arrays cost nothing; the array
    # footprint must stay large or the GPU ramp underreports bandwidth.
    return _figure_data(
        "figure1", chips, fast, session, max_workers, n_elements=n_elements
    )


def figure1_from_envelopes(
    envelopes: Iterable[ResultEnvelope],
    *,
    chips: Sequence[str] | None = None,
) -> dict[str, dict]:
    """Assemble the Figure-1 series from persisted STREAM envelopes."""
    return get_figure("figure1").series(
        ResultFrame.from_envelopes(envelopes), chips=chips
    )


# ---------------------------------------------------------------------------
# Figures 2-4 — GEMM series
# ---------------------------------------------------------------------------
def figure2_data(
    chips: Sequence[str] | None = None,
    *,
    sizes: tuple[int, ...] = paper.GEMM_SIZES,
    impl_keys: Sequence[str] | None = None,
    repeats: int = paper.GEMM_REPEATS,
    fast: bool = False,
    session: Session | None = None,
    max_workers: int | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Figure 2: best GFLOPS per chip, implementation and size.

    Returns ``{chip: {impl: {n: gflops}}}``; excluded cells are absent.
    """
    return _figure_data(
        "figure2",
        chips,
        fast,
        session,
        max_workers,
        impl_keys=impl_keys,
        sizes=tuple(sizes),
        repeats=repeats,
    )


def figure2_from_envelopes(
    envelopes: Iterable[ResultEnvelope],
    *,
    chips: Sequence[str] | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Assemble the Figure-2 series from persisted GEMM envelopes."""
    return get_figure("figure2").series(
        ResultFrame.from_envelopes(envelopes), chips=chips
    )


def figure3_data(
    chips: Sequence[str] | None = None,
    *,
    sizes: tuple[int, ...] = paper.POWER_SIZES,
    impl_keys: Sequence[str] | None = None,
    repeats: int = paper.GEMM_REPEATS,
    fast: bool = False,
    session: Session | None = None,
    max_workers: int | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Figure 3: mean combined CPU+GPU power (mW) per chip, impl and size."""
    return _figure_data(
        "figure3",
        chips,
        fast,
        session,
        max_workers,
        impl_keys=impl_keys,
        sizes=tuple(sizes),
        repeats=repeats,
    )


def figure3_from_envelopes(
    envelopes: Iterable[ResultEnvelope],
    *,
    chips: Sequence[str] | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Assemble the Figure-3 series from persisted power envelopes."""
    return get_figure("figure3").series(
        ResultFrame.from_envelopes(envelopes), chips=chips
    )


def figure4_data(
    chips: Sequence[str] | None = None,
    *,
    sizes: tuple[int, ...] = paper.POWER_SIZES,
    impl_keys: Sequence[str] | None = None,
    repeats: int = paper.GEMM_REPEATS,
    fast: bool = False,
    session: Session | None = None,
    max_workers: int | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Figure 4: efficiency (GFLOPS/W) per chip, implementation and size."""
    return _figure_data(
        "figure4",
        chips,
        fast,
        session,
        max_workers,
        impl_keys=impl_keys,
        sizes=tuple(sizes),
        repeats=repeats,
    )


def figure4_from_envelopes(
    envelopes: Iterable[ResultEnvelope],
    *,
    chips: Sequence[str] | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Assemble the Figure-4 series from persisted power envelopes."""
    return get_figure("figure4").series(
        ResultFrame.from_envelopes(envelopes), chips=chips
    )
