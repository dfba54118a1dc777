"""Correctness gate: runs before any timing; every failure is counted.

Checks (each workload runs the ones named in its ``gate_checks``):

* ``serial``  -- vectorized envelopes are byte-identical to the serial
  engine's on a subsample of the SpMV grid;
* ``sharded`` -- sharded envelopes are byte-identical to vectorized ones on
  a subsample;
* ``store`` -- one paper study through ``run_study(..., out=DIR)``: every
  envelope reloaded from the store equals the in-memory one, and the
  paper's shape checks hold on the reloaded frame (every workload);
* ``paper-model`` -- paper studies at seeds drawn from the run's seed pass
  the paper's shape checks; yields ``paper_mape_pct`` (every workload);
* ``self-fit`` -- a fit against the unperturbed paper trace reaches
  ``FIT_MAPE_LIMIT_PCT``.

Each check counts the cells (or fits) it takes on before it runs them, so
a check that raises fails all of them.
"""

from __future__ import annotations

import random
import statistics
import traceback

from repro.calibrate import MeasuredTrace, run_calibration
from repro.experiments import Session
from repro.experiments.backends import ShardedBackend
from repro.study import ResultFrame, compare_study, paper_study, run_study
from repro.study.report import figure_series_bundle

import phases

#: Every 128th size of the SpMV grid (2 sizes x 8 lanes = 16 cells).
SERIAL_STRIDE = 128
#: The first 16 sizes (128 cells) in shards of 32.
SHARDED_SIZES = 16
SHARDED_SHARD = 32
#: Paper studies whose comparison errors ``paper_mape_pct`` averages.
MAPE_REPLICAS = 24


def _texts(envelopes) -> list[str]:
    return [envelope.to_json() if envelope is not None else "" for envelope in envelopes]


def check_serial(workload, report) -> bool:
    specs = workload.sub_sweep(workload.sweep.sizes[::SERIAL_STRIDE]).expand()
    report["attempted"] += len(specs)
    serial = workload.session().run_batch(specs, backend="serial", on_error="collect")
    vectorized = workload.session().run_batch(specs, backend="vectorized", on_error="collect")
    serial_texts, vectorized_texts = _texts(serial), _texts(vectorized)
    report["failed"] += sum(a != b or not a for a, b in zip(serial_texts, vectorized_texts))
    report["reference"]["serial_texts"] = {
        envelope.spec_hash: text for envelope, text in zip(serial, serial_texts) if envelope
    }
    return serial_texts == vectorized_texts


def check_sharded(workload, report) -> bool:
    specs = workload.sub_sweep(workload.sweep.sizes[:SHARDED_SIZES]).expand()
    report["attempted"] += len(specs)
    sharded = workload.session().run_batch(
        specs,
        backend=ShardedBackend(workload.workers, shard_size=SHARDED_SHARD),
        on_error="collect",
    )
    vectorized = workload.session().run_batch(specs, backend="vectorized", on_error="collect")
    sharded_texts, vectorized_texts = _texts(sharded), _texts(vectorized)
    report["failed"] += sum(
        a != b or not a for a, b in zip(sharded_texts, vectorized_texts)
    ) + abs(len(sharded) - len(vectorized))
    return sharded_texts == vectorized_texts


def check_store(workload, report) -> bool:
    study = paper_study(seed=random.Random(f"store:{workload.seed}").randrange(2**31))
    cells = len(study.compile())
    report["attempted"] += cells
    out = workload.scratch / "gate-store"
    frame = run_study(study, phases.study_session(study), out=out, backend="vectorized")
    reloaded = ResultFrame.from_store(out)
    good = (
        len(frame) == cells
        and sorted(row.envelope.to_json() for row in frame)
        == sorted(row.envelope.to_json() for row in reloaded)
        and phases.all_shapes_hold(figure_series_bundle(reloaded))
    )
    report["failed"] += 0 if good else cells
    return good


def check_paper_model(workload, report) -> bool:
    """Paper studies at seeds drawn from the run's: shapes, and the MAPE.

    ``paper_mape_pct`` is the mean over MAPE_REPLICAS studies, because one
    study's error moves by a tenth from seed to seed.
    """
    rng = random.Random(f"paper-model:{workload.seed}")
    studies = [paper_study(seed=rng.randrange(2**31)) for _ in range(MAPE_REPLICAS)]
    grids = [study.compile() for study in studies]
    report["attempted"] += sum(len(grid) for grid in grids)
    envelopes = Session(numerics="model-only").run_batch(
        [spec for grid in grids for spec in grid], backend="vectorized", on_error="collect"
    )
    mapes, ok, start = [], True, 0
    for grid in grids:
        batch = envelopes[start:start + len(grid)]
        start += len(grid)
        frame = ResultFrame.from_envelopes(e for e in batch if e is not None)
        good = len(frame) == len(grid) and phases.all_shapes_hold(figure_series_bundle(frame))
        ok = ok and good
        report["failed"] += 0 if good else len(grid)
        mapes.append(phases.mape_pct(compare_study(frame)))
    report["paper_mape_pct"] = statistics.fmean(mapes)
    report["paper_replicas"] = len(mapes)
    return ok


def check_self_fit(workload, report) -> bool:
    report["attempted"] += 1
    result = run_calibration(MeasuredTrace.from_paper())
    good = result.overall_mape_pct <= phases.FIT_MAPE_LIMIT_PCT
    report["failed"] += 0 if good else 1
    report["self_fit_mape_pct"] = result.overall_mape_pct
    return good


CHECKS = {
    "serial": check_serial,
    "sharded": check_sharded,
    "store": check_store,
    "paper-model": check_paper_model,
    "self-fit": check_self_fit,
}


def run_gate(workload) -> dict:
    """Run the workload's checks; return counts, verdicts and references."""
    report = {
        "attempted": 0,
        "failed": 0,
        "checks": {},
        "reference": {"ops": workload.pass_ops()},
    }
    for name in workload.gate_checks:
        attempted, failed = report["attempted"], report["failed"]
        try:
            report["checks"][name] = CHECKS[name](workload, report)
        except Exception:
            traceback.print_exc()
            report["checks"][name] = False
            report["attempted"] = max(report["attempted"], attempted + 1)
            report["failed"] = failed + report["attempted"] - attempted
    return report
