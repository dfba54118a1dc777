"""The calibration search: coarse grid -> local refinement, per chip.

Every candidate parameter set becomes a *derived chip* (see
:mod:`repro.calibration.overrides`), so candidate evaluation is nothing
special — ordinary experiment specs executed through the ordinary
:meth:`~repro.experiments.session.Session.run_batch` backend seam.  One
batch per round carries every (chip, knob, candidate, observation) cell of
that round, which is exactly the shape the vectorized fast path eats.

The search is block-coordinate: each knob is fit on a 1-D grid while the
chip's other knobs sit at their incumbent values, and each refinement round
re-grids the +/- one-step neighbourhood of the incumbent.  The forward model
is monotone in every knob over its bracket, so the bracket shrinks by
``2/(points-1)`` per round and lands well inside the 1 % acceptance band in
a handful of rounds.

Determinism: sessions run ``model-only`` numerics with ``noise_sigma=0.0``
(the zero default disables every noise source globally), candidate grids are
pure arithmetic, and ties break toward the lower candidate — the same seed
and trace always produce a byte-identical :class:`CalibrationResult`.

The registry of derived chips is process-local, so the ``sharded`` backend
(whose workers rebuild sessions from plain data) is rejected with
:class:`~repro.errors.CalibrationError`; the default — ``vectorized`` — is
also the fastest seat for this workload.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.calibrate.result import CalibrationResult
from repro.calibrate.spec import CalibrationSpec, default_spec
from repro.calibrate.trace import MeasuredTrace, Observation, load_trace
from repro.calibration.overrides import anchored_knob_value, derive_calibrated_chip
from repro.errors import CalibrationError
from repro.experiments.backends import BACKEND_NAMES
from repro.experiments.session import Session
from repro.experiments.specs import (
    ExperimentSpec,
    GemmSpec,
    PoweredGemmSpec,
    StreamSpec,
)

__all__ = ["run_calibration", "synthesize_trace", "DEFAULT_BACKEND"]

#: The calibration loop's default execution backend.
DEFAULT_BACKEND = "vectorized"


def _check_backend(backend: str | None) -> str:
    resolved = backend or DEFAULT_BACKEND
    if resolved == "sharded":
        raise CalibrationError(
            "the 'sharded' backend runs candidate cells in worker processes "
            "that cannot see the in-process derived-chip registry; use "
            "'vectorized' (default) or 'serial'"
        )
    if resolved not in BACKEND_NAMES:
        raise CalibrationError(
            f"unknown backend {resolved!r}; known: {', '.join(BACKEND_NAMES)}"
        )
    return resolved


def _make_session(
    backend: str, seed: int, cache_dir: Path | None = None
) -> Session:
    # model-only numerics + a zero default sigma: the pure closed-form
    # forward model, noise globally disabled — deterministic and cheap.
    return Session(
        numerics="model-only",
        noise_sigma=0.0,
        seed=seed,
        backend=backend,
        cache_dir=cache_dir,
    )


def _spec_for(obs: Observation, chip_name: str) -> ExperimentSpec:
    if obs.workload == "gemm":
        return GemmSpec(chip=chip_name, impl_key=obs.impl_key, n=obs.size)
    if obs.workload == "powered-gemm":
        return PoweredGemmSpec(chip=chip_name, impl_key=obs.impl_key, n=obs.size)
    return StreamSpec(chip=chip_name, target=obs.impl_key)


def _extract(envelope, metric: str) -> float:
    result = envelope.result
    if metric == "gflops":
        return float(result.best_gflops)
    if metric == "power_w":
        return float(result.mean_combined_w)
    return float(result.max_gbs)


def _knob_matches(knob: str, obs: Observation) -> bool:
    category, qualifier = knob.rsplit(".", 1)
    if category == "gemm.power_w":
        return obs.workload == "powered-gemm" and obs.impl_key == qualifier
    if category == "stream.gbs":
        return obs.workload == "stream" and obs.impl_key == qualifier
    # peak_gflops / overhead_s / traffic_read_factor all shape the timed GEMM
    return obs.workload == "gemm" and obs.impl_key == qualifier


def _grid(lo: float, hi: float, points: int) -> list[float]:
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


def synthesize_trace(
    chips: Sequence[str] | None = None,
    *,
    backend: str | None = None,
    seed: int = 0,
) -> MeasuredTrace:
    """A trace of the paper-anchored simulator's own outputs.

    Same observation skeleton as :meth:`MeasuredTrace.from_paper`, with
    values replaced by the anchored forward model's predictions — the
    closed-loop ground truth self-calibration must recover.
    """
    resolved = _check_backend(backend)
    skeleton = MeasuredTrace.from_paper(chips)
    session = _make_session(resolved, seed)
    envelopes = session.run_batch([_spec_for(o, o.chip) for o in skeleton])
    observations = tuple(
        dataclasses.replace(obs, value=_extract(env, obs.metric))
        for obs, env in zip(skeleton.observations, envelopes)
    )
    return MeasuredTrace(observations=observations, source="synthetic")


def run_calibration(
    trace: MeasuredTrace | str | Path,
    spec: CalibrationSpec | None = None,
    *,
    backend: str | None = None,
    out_dir: str | Path | None = None,
    log: Callable[[str], None] | None = None,
) -> CalibrationResult:
    """Fit the simulator's calibration knobs against a measured trace.

    Parameters
    ----------
    trace:
        A :class:`MeasuredTrace` or a path to a saved trace JSON file.
    spec:
        The parameter space; defaults to :func:`default_spec` over the
        trace's chips.
    backend:
        Execution backend for the candidate sweeps (default
        ``"vectorized"``; ``"sharded"`` is rejected, see module docs).
    out_dir:
        When given, candidate envelopes persist to ``<out_dir>/store`` (an
        interrupted search resumes from cache) and the result artifact is
        written to ``<out_dir>/calibration.json``.
    log:
        Optional per-round progress callback (one line per call).

    Raises
    ------
    CalibrationError
        For unusable backends, empty chip/observation intersections, or
        malformed traces/specs.
    """
    if not isinstance(trace, MeasuredTrace):
        trace = load_trace(trace)
    if spec is None:
        spec = default_spec(chips=trace.chips)
    resolved_backend = _check_backend(backend)
    chips = [c for c in spec.chips if trace.for_chip(c)]
    if not chips:
        raise CalibrationError(
            f"trace ({', '.join(trace.chips)}) has no observations for the "
            f"spec's chips ({', '.join(spec.chips)})"
        )
    cache_dir = Path(out_dir) / "store" if out_dir is not None else None
    session = _make_session(resolved_backend, spec.seed, cache_dir)

    # Per-(chip, knob) state: the observations that score the knob, the
    # anchored default, the active bracket, and the incumbent value.
    fit_obs: dict[tuple[str, str], tuple[Observation, ...]] = {}
    anchors: dict[str, dict[str, float]] = {c: {} for c in chips}
    brackets: dict[tuple[str, str], tuple[float, float]] = {}
    bounds: dict[tuple[str, str], tuple[float, float]] = {}
    incumbent: dict[str, dict[str, float]] = {c: {} for c in chips}
    for chip in chips:
        observations = trace.for_chip(chip)
        for param in spec.params:
            matched = tuple(o for o in observations if _knob_matches(param.knob, o))
            if not matched:
                continue
            anchor = anchored_knob_value(chip, param.knob)
            key = (chip, param.knob)
            fit_obs[key] = matched
            anchors[chip][param.knob] = anchor
            hi = anchor * param.hi_rel
            if param.knob.startswith("gemm.peak_gflops."):
                # Targets above the engine's architectural peak would need
                # a compute efficiency over 1.0; clamp the bracket there.
                from repro.calibration.gemm import max_anchorable_peak_gflops
                from repro.soc.catalog import get_chip

                impl = param.knob.rsplit(".", 1)[1]
                cap = max_anchorable_peak_gflops(get_chip(chip), impl)
                hi = min(hi, cap * (1.0 - 1e-9))
            bounds[key] = (anchor * param.lo_rel, hi)
            brackets[key] = bounds[key]
            incumbent[chip][param.knob] = (bounds[key][0] + bounds[key][1]) / 2.0
    if not fit_obs:
        raise CalibrationError(
            "no spec knob matches any trace observation; nothing to fit"
        )

    total_rounds = 1 + spec.refine_rounds
    cells = 0
    rounds_run = 0
    for round_index in range(total_rounds):
        batch: list[ExperimentSpec] = []
        index: list[tuple[str, str, int, Observation]] = []
        candidates: dict[tuple[str, str], list[float]] = {}
        for (chip, knob), observations in fit_obs.items():
            lo, hi = brackets[(chip, knob)]
            if (hi - lo) <= spec.tolerance * anchors[chip][knob]:
                continue  # converged early; frozen at the incumbent
            values = _grid(lo, hi, spec.coarse_points)
            candidates[(chip, knob)] = values
            for value_index, value in enumerate(values):
                overlay = dict(incumbent[chip])
                overlay[knob] = value
                derived = derive_calibrated_chip(chip, overlay)
                for obs in observations:
                    batch.append(_spec_for(obs, derived))
                    index.append((chip, knob, value_index, obs))
        if not batch:
            break
        envelopes = session.run_batch(batch)
        cells += len(batch)
        rounds_run += 1
        scores: dict[tuple[str, str, int], list[float]] = {}
        for (chip, knob, value_index, obs), env in zip(index, envelopes):
            predicted = _extract(env, obs.metric)
            scores.setdefault((chip, knob, value_index), []).append(
                abs(predicted - obs.value) / abs(obs.value)
            )
        for (chip, knob), values in candidates.items():
            per_candidate = [
                sum(scores[(chip, knob, i)]) / len(scores[(chip, knob, i)])
                for i in range(len(values))
            ]
            # Ties break toward the lower candidate: min() keeps the first
            # minimum, and the grid is ascending.
            best_index = per_candidate.index(min(per_candidate))
            best_value = values[best_index]
            incumbent[chip][knob] = best_value
            lo, hi = brackets[(chip, knob)]
            step = (hi - lo) / (spec.coarse_points - 1)
            orig_lo, orig_hi = bounds[(chip, knob)]
            brackets[(chip, knob)] = (
                max(orig_lo, best_value - step),
                min(orig_hi, best_value + step),
            )
        if log is not None:
            widths = [
                (brackets[key][1] - brackets[key][0])
                / anchors[key[0]][key[1]]
                for key in candidates
            ]
            log(
                f"round {round_index + 1}/{total_rounds}: {len(batch)} cells, "
                f"{len(candidates)} active knobs, max bracket width "
                f"{max(widths) * 100.0:.3f}% of anchor"
            )

    # Final scoring pass: every observation of every chip under the fitted
    # overlay (not just the knob-matched ones).
    final_batch: list[ExperimentSpec] = []
    final_index: list[Observation] = []
    for chip in chips:
        overlay = incumbent[chip]
        target_chip = derive_calibrated_chip(chip, overlay) if overlay else chip
        for obs in trace.for_chip(chip):
            final_batch.append(_spec_for(obs, target_chip))
            final_index.append(obs)
    final_envelopes = session.run_batch(final_batch)
    cells += len(final_batch)

    mape: dict[str, dict[str, float]] = {}
    per_chip_overall: list[float] = []
    apes: dict[str, dict[str, list[float]]] = {c: {} for c in chips}
    for obs, env in zip(final_index, final_envelopes):
        predicted = _extract(env, obs.metric)
        apes[obs.chip].setdefault(obs.metric, []).append(
            abs(predicted - obs.value) / abs(obs.value)
        )
    for chip in chips:
        per_metric = {
            metric: 100.0 * sum(values) / len(values)
            for metric, values in apes[chip].items()
        }
        all_values = [v for values in apes[chip].values() for v in values]
        per_metric["overall"] = 100.0 * sum(all_values) / len(all_values)
        mape[chip] = per_metric
        per_chip_overall.append(per_metric["overall"])

    from repro.study.frame import ResultFrame

    result = CalibrationResult(
        spec=spec.to_dict(),
        trace_source=trace.source,
        trace_digest=trace.digest(),
        backend=resolved_backend,
        fitted={chip: dict(incumbent[chip]) for chip in chips},
        anchors={chip: dict(anchors[chip]) for chip in chips},
        mape=mape,
        overall_mape_pct=sum(per_chip_overall) / len(per_chip_overall),
        rounds=rounds_run,
        cells_evaluated=cells,
        frame=ResultFrame.from_envelopes(final_envelopes),
    )
    if out_dir is not None:
        result.save(Path(out_dir) / "calibration.json")
    return result
