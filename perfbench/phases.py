"""The benchmark's workloads, driven through the public library API.

Each workload builds its inputs from the seed, so every pass of a run does
identical work.  It knows how to warm up, run one timed pass (``execute``),
check that pass's outputs (``check``, outside the timed region) and replay
a pass stage by stage through public functions with spans around each call
(``replay``).  ``execute_reference`` runs, untraced, the path the replay is
of, where that differs from ``execute``.  The replay must produce the same
envelope bytes as ``execute``; ``run.py`` compares the digests.

Stores are written under the run's scratch directory, which is removed when
the run ends.  Each forked writer uses a directory named after its process
id.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import statistics
from pathlib import Path
from typing import Any, Callable

from repro.analysis.compare import shape_checks
from repro.calibrate import MeasuredTrace, run_calibration
from repro.calibration import derive_calibrated_chip
from repro.experiments import (
    ResultEnvelope,
    RunManifest,
    Session,
    SweepSpec,
    spec_from_dict,
)
from repro.experiments.backends import ShardedBackend
from repro.experiments.store import (
    atomic_write_text,
    envelope_path,
    load_envelopes,
)
from repro.sim.noise import lognormal_factors, noise_entropies, resolve_sigma
from repro.sim.vectorized import (
    LoweredCell,
    LoweredSequence,
    evaluate_cells,
    evaluate_sequences,
    vector_context,
)
from repro.study import FIGURES, ResultFrame, compare_study, paper_study
from repro.workloads import workload_for_spec

from spans import CallTimer, Tracer

CHIPS = ("M1", "M2", "M3", "M4")
TARGETS = ("cpu", "gpu")
#: SpMV grid: 4 chips x 2 targets x SPMV_SIZES sizes, SPMV_REPEATS reps.
SPMV_SIZES = 256
SPMV_REPEATS = 150
#: Cells per sharded-backend shard, and per IPC probe.
SHARD_SIZE = 256
#: Untraced SpMV passes digest every DIGEST_STRIDE-th envelope.
DIGEST_STRIDE = 16
#: Perturbed paper traces fitted by every calibrate pass.
CALIBRATE_TRACES = 3
#: Log-sigma of the per-observation perturbation of calibrate's traces.
PERTURB_SIGMA = 0.05
#: A fit (perturbed or not) must recover its trace to this MAPE (percent).
FIT_MAPE_LIMIT_PCT = 1.0

Mark = Callable[[], None]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def digest_texts(texts) -> str:
    """sha256 over envelope JSON texts, in order."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def store_summary(root: Path) -> dict[str, Any]:
    """Digest, byte count and file count of every file under a store."""
    digest = hashlib.sha256()
    total = files = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        total += len(data)
        files += 1
    return {"digest": digest.hexdigest(), "bytes": total, "files": files}


def lower(session: Session, spec) -> Any:
    """A spec's vectorized lowering (``None``: the scalar engine runs it)."""
    workload = workload_for_spec(spec)
    if workload.vectorized_body is None:
        return None
    context = vector_context(
        spec.chip, session.thermal_enabled, session.numerics_for(spec)
    )
    return workload.vectorized_body(context, spec)


def count_ops(session: Session, specs) -> int:
    """Simulated operations of a batch: reps of a cell, ops of a sequence."""
    ops = 0
    for spec in specs:
        lowered = lower(session, spec)
        if isinstance(lowered, LoweredCell):
            ops += lowered.repeats
        elif isinstance(lowered, LoweredSequence):
            ops += len(lowered.ops)
    return ops


def replay_cells(tracer: Tracer, session: Session, specs) -> tuple[list, list, dict]:
    """The vectorized backend's path for one batch, stage by stage.

    Noise is drawn inside ``evaluate_*``; it is re-drawn on its own with the
    same inputs just before, and ``assemble`` is timed by wrapping each
    lowered cell's closure.
    """
    with tracer.span("session.cache_key"):
        keys = [session.cache_key(spec) for spec in specs]
    with tracer.span("lower"):
        lowered = [lower(session, spec) for spec in specs]
    assemble = CallTimer()
    cells = [
        (i, dataclasses.replace(low, assemble=assemble.wrap(low.assemble)))
        for i, low in enumerate(lowered)
        if isinstance(low, LoweredCell)
    ]
    sequences = [
        (i, dataclasses.replace(low, assemble=assemble.wrap(low.assemble)))
        for i, low in enumerate(lowered)
        if isinstance(low, LoweredSequence)
    ]
    sigma = session.noise_sigma
    # the draw evaluate_* makes internally, re-run first on the same heap
    with tracer.span("noise"):
        entropies: list[int] = []
        sigmas: list[float] = []
        for _, cell in cells:
            entropies.extend(noise_entropies(cell.seed, cell.noise_keys))
            sigmas.extend([resolve_sigma(sigma, cell.noise_sigma)] * cell.repeats)
        for _, sequence in sequences:
            entropies.extend(
                noise_entropies(sequence.seed, [op.noise_key for op in sequence.ops])
            )
            sigmas.extend(resolve_sigma(sigma, op.noise_sigma) for op in sequence.ops)
        lognormal_factors(entropies, sigmas)
        draws = len(entropies)
        del entropies, sigmas
    results: list[Any] = [None] * len(specs)
    with tracer.span("evaluate"):
        for group, evaluator in ((cells, evaluate_cells), (sequences, evaluate_sequences)):
            if group:
                evaluated = evaluator([low for _, low in group], default_sigma=sigma)
                for (i, _), result in zip(group, evaluated):
                    results[i] = result
        tracer.aggregate("assemble", assemble)
    fallback = [i for i, low in enumerate(lowered) if low is None]
    with tracer.span("lower.fallback"):
        for i in fallback:
            spec = specs[i]
            results[i] = workload_for_spec(spec).execute(session.machine_for(spec), spec)
    with tracer.span("envelope.create"):
        envelopes = [
            ResultEnvelope.create(
                spec, result, meta={"session": session.fingerprint(), "cache_key": key}
            )
            for spec, result, key in zip(specs, results, keys)
        ]
    with tracer.span("envelope.to_json"):
        texts = [envelope.to_json() for envelope in envelopes]
    counts = {
        "lower.cells": len(specs) - len(fallback),
        "lower.fallback_cells": len(fallback),
        "noise.draws": draws,
    }
    return envelopes, texts, counts


def probe_ipc(tracer: Tracer, envelopes) -> dict:
    """Pickle and unpickle one shard's ``to_dict`` payloads, as IPC does."""
    with tracer.span("ipc"):
        payloads = [envelope.to_dict() for envelope in envelopes[:SHARD_SIZE]]
        with tracer.span("ipc.pickle"):
            blob = pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL)
        with tracer.span("ipc.unpickle"):
            pickle.loads(blob)
    return {"ipc.bytes": len(blob), "ipc.cells": len(payloads)}


def write_store(tracer: Tracer, root: Path, session: Session, specs, envelopes, texts) -> None:
    """``run_with_manifest``'s writes: manifest, envelope files, checkpoints."""
    with tracer.span("manifest.checkpoint"):
        manifest = RunManifest.create(root, session, specs)
        manifest.save()
    with tracer.span("store.write"):
        paths = [
            atomic_write_text(envelope_path(root, envelope), text + "\n")
            for envelope, text in zip(envelopes, texts)
        ]
    with tracer.span("manifest.checkpoint"):
        for envelope, path in zip(envelopes, paths):
            manifest.checkpoint(envelope, path.relative_to(root))
        manifest.save()


def read_store(tracer: Tracer, root: Path) -> tuple[ResultFrame, dict, list]:
    """Reload a store, build its frame, render Figures 1-4 and compare."""
    with tracer.span("store.load"):
        envelopes = load_envelopes(root)
    with tracer.span("frame.build"):
        frame = ResultFrame.from_envelopes(envelopes)
    with tracer.span("frame.query"):
        series = {name: figure.series(frame) for name, figure in FIGURES.items()}
        comparison = compare_study(frame)
    return frame, series, comparison


def probe_study(tracer: Tracer, root: Path, seed: int) -> dict:
    """The study layer on one ``paper_study`` replica seeded from ``seed``.

    No listed workload runs a study, so every replay ends with the
    per-replica path of ``run_study(..., out=DIR)``: compile, envelopes,
    store writes, then a reload rendered into Figures 1-4 and
    ``compare_study``.  The replica's cells are evaluated outside any
    stage span, so they do not blur the workload's own lowering and noise.
    """
    with tracer.span("study"):
        study = paper_study(seed=random.Random(f"study:{seed}").randrange(2**31))
        session = study_session(study)
        with tracer.span("specs.expand"):
            specs = study.compile()
        envelopes = session.run_batch(specs, backend="vectorized")
        texts = [envelope.to_json() for envelope in envelopes]
        write_store(tracer, root, session, specs, envelopes, texts)
        frame, series, comparison = read_store(tracer, root)
        summary = store_summary(root)
        reloaded = sorted(row.envelope.to_json() for row in frame)
        good = reloaded == sorted(texts) and all_shapes_hold(series) and bool(comparison)
    return {
        "store.bytes": summary["bytes"],
        "store.files": summary["files"],
        "study.cells": len(specs),
        "study.failed": 0 if good else len(specs),
    }


def mape_pct(rows) -> float:
    """Mean absolute relative error of comparison rows, in percent."""
    return 100.0 * statistics.fmean(abs(row.relative_error) for row in rows)


def all_shapes_hold(series: dict) -> bool:
    checks = shape_checks(
        fig1=series["figure1"] or None,
        fig2=series["figure2"] or None,
        fig4=series["figure4"] or None,
    )
    return bool(checks) and all(checks.values())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """Base: a seeded input set plus warm-up, pass, check and replay."""

    name = ""
    #: Gate checks this workload runs (see gate.py).  Every workload runs
    #: ``store``, because no pass writes a store, and ``paper-model``,
    #: because it yields ``paper_mape_pct``.
    gate_checks: tuple[str, ...] = ()
    #: Whether the replay is of another path than ``execute``'s; the trace
    #: then times that path untraced too (``execute_reference``).
    reference_path = False
    #: Replayed stages that the untraced path also runs; the rest of its
    #: wall time is ``session.unattributed_s``.
    real_path = (
        "specs.expand",
        "session.cache_key",
        "lower",
        "lower.fallback",
        "evaluate",
        "envelope.create",
    )

    def __init__(self, seed: int, scratch: Path, workers: int) -> None:
        self.seed = seed
        self.scratch = scratch
        self.workers = workers
        #: Filled from the gate's output before any timed pass.
        self.reference: dict[str, Any] = {}

    def warm_up(self) -> None:
        raise NotImplementedError

    def pass_units(self) -> int:
        """Cells (fits, for calibrate) one pass attempts."""
        raise NotImplementedError

    def pass_ops(self) -> int | None:
        """Simulated operations per pass, when known before a pass runs."""
        return None

    def execute(self, mark: Mark) -> Any:
        raise NotImplementedError

    def execute_reference(self, untraced: dict) -> list:
        """The path the replay is of, untraced: its envelopes, in order."""
        raise NotImplementedError

    def check(self, output: Any, full: bool) -> dict:
        """Outputs of one pass, verified; ``full`` digests every envelope."""
        raise NotImplementedError

    def replay_path(self, tracer: Tracer, untraced: dict) -> tuple[list, list, dict]:
        """The pass, stage by stage: envelopes, their JSON texts, counts."""
        raise NotImplementedError

    def replay(self, tracer: Tracer, untraced: dict) -> tuple[list, dict]:
        """The replayed pass, then the IPC and study probes: texts, counts."""
        envelopes, texts, counts = self.replay_path(tracer, untraced)
        counts.update(probe_ipc(tracer, envelopes))
        counts.update(probe_study(tracer, self.scratch / f"study-{os.getpid()}", self.seed))
        return texts, counts


class SpmvWorkload(Workload):
    """SpMV sweep, 150 repetitions per cell, vectorized, in memory."""

    name = "spmv-r150"
    gate_checks = ("serial", "store", "paper-model")

    def __init__(self, seed: int, scratch: Path, workers: int) -> None:
        super().__init__(seed, scratch, workers)
        rng = random.Random(f"spmv:{seed}")
        base = 256 + rng.randrange(4096)
        self.sweep = SweepSpec(
            kind="spmv",
            chips=CHIPS,
            targets=TARGETS,
            sizes=tuple(range(base, base + SPMV_SIZES)),
            repeats=SPMV_REPEATS,
            numerics="model-only",
            seed=rng.randrange(2**31),
        )

    def sub_sweep(self, sizes) -> SweepSpec:
        return dataclasses.replace(self.sweep, sizes=tuple(sizes))

    @staticmethod
    def session() -> Session:
        return Session(numerics="model-only")

    def warm_up(self) -> None:
        warm = SweepSpec(
            kind="spmv", chips=CHIPS, targets=TARGETS, sizes=(256, 257),
            repeats=SPMV_REPEATS, numerics="model-only",
        )
        self.session().run_batch(warm, backend=self.backend(shard_size=8))

    def backend(self, shard_size: int = SHARD_SIZE):
        return "vectorized"

    def pass_units(self) -> int:
        return len(CHIPS) * len(TARGETS) * len(self.sweep.sizes)

    def pass_ops(self) -> int:
        return count_ops(self.session(), self.sweep.expand())

    def execute(self, mark):
        envelopes = self.session().run_batch(
            self.sweep, backend=self.backend(), on_error="collect"
        )
        mark()
        return envelopes

    def check(self, output, full: bool) -> dict:
        delivered = [envelope for envelope in output if envelope is not None]
        by_hash = {envelope.spec_hash: envelope for envelope in delivered}
        # the gate ran these cells on the serial engine
        wrong = sum(
            spec_hash not in by_hash or by_hash[spec_hash].to_json() != text
            for spec_hash, text in self.reference["serial_texts"].items()
        )
        # JSON-encoding 150-repetition envelopes costs about as much as
        # running them, so untraced passes digest every DIGEST_STRIDE-th one
        sample = delivered if full else delivered[::DIGEST_STRIDE]
        return {
            "delivered": len(delivered),
            "ops": self.reference["ops"],
            "attempted": len(output),
            "failed": len(output) - len(delivered) + wrong,
            "batch_cells": len(output),
            "digest": digest_texts(envelope.to_json() for envelope in sample),
        }

    def replay_path(self, tracer, untraced):
        with tracer.span("specs.expand"):
            specs = self.sweep.expand()
        return replay_cells(tracer, self.session(), specs)


class ShardedSpmvWorkload(SpmvWorkload):
    """The same SpMV grid through the sharded backend at ``nproc`` workers.

    Workers cannot be traced from outside, so the replay is of the
    in-process path they run, and ``execute_reference`` times that path.
    """

    name = "spmv-r150-sharded"
    gate_checks = ("serial", "sharded", "store", "paper-model")
    reference_path = True

    def backend(self, shard_size: int = SHARD_SIZE):
        return ShardedBackend(self.workers, shard_size=shard_size)

    def execute_reference(self, untraced):
        return self.session().run_batch(self.sweep, backend="vectorized")


class CalibrateWorkload(Workload):
    """``run_calibration`` against CALIBRATE_TRACES perturbed paper traces.

    The traces come from the seed alone, so every pass fits the same ones.
    The replay is of the fits' final scoring batches (specs taken from
    ``CalibrationResult.frame``) on freshly derived chips, and
    ``execute_reference`` times those batches untraced.
    """

    name = "calibrate"
    gate_checks = ("self-fit", "store", "paper-model")
    reference_path = True
    real_path = Workload.real_path + ("soc.derive",)

    def __init__(self, seed: int, scratch: Path, workers: int) -> None:
        super().__init__(seed, scratch, workers)
        rng = random.Random(f"calibrate:{seed}")
        paper = MeasuredTrace.from_paper()
        self.traces = [
            MeasuredTrace(
                observations=tuple(
                    dataclasses.replace(
                        obs, value=obs.value * rng.lognormvariate(0.0, PERTURB_SIGMA)
                    )
                    for obs in paper
                ),
                source=f"perturbed-{index}",
            )
            for index in range(CALIBRATE_TRACES)
        ]

    def warm_up(self) -> None:
        run_calibration(MeasuredTrace.from_paper(chips=("M1",)))

    def pass_units(self) -> int:
        return len(self.traces)

    def execute(self, mark):
        return [run_calibration(trace, log=lambda _line: mark()) for trace in self.traces]

    def check(self, output, full: bool) -> dict:
        batches = [
            {
                "fitted": fit.fitted,
                "seed": fit.spec["seed"],
                "specs": [row.envelope.spec for row in fit.frame],
            }
            for fit in output
        ]
        envelopes = [row.envelope for fit in output for row in fit.frame]
        return {
            "delivered": len(envelopes),
            "ops": sum(
                count_ops(calibration_session(batch["seed"]), batch["specs"])
                for batch in batches
            ),
            "attempted": len(output),
            "failed": sum(fit.overall_mape_pct > FIT_MAPE_LIMIT_PCT for fit in output),
            "batch_cells": sum(fit.cells_evaluated for fit in output),
            "fit_mape_pct": statistics.fmean(fit.overall_mape_pct for fit in output),
            "digest": digest_texts(envelope.to_json() for envelope in envelopes),
            "final_batches": [
                {**batch, "specs": [spec.to_dict() for spec in batch["specs"]]}
                for batch in batches
            ],
        }

    def execute_reference(self, untraced):
        envelopes = []
        for batch in untraced["final_batches"]:
            for chip, overlay in batch["fitted"].items():
                derive_calibrated_chip(chip, overlay)
            specs = [spec_from_dict(data) for data in batch["specs"]]
            envelopes += calibration_session(batch["seed"]).run_batch(
                specs, backend="vectorized"
            )
        return envelopes

    def replay_path(self, tracer, untraced):
        envelopes, texts, counts = [], [], {}
        for batch in untraced["final_batches"]:
            with tracer.span("soc.derive"):
                for chip, overlay in batch["fitted"].items():
                    derive_calibrated_chip(chip, overlay)
            with tracer.span("specs.expand"):
                specs = [spec_from_dict(data) for data in batch["specs"]]
            got, got_texts, got_counts = replay_cells(
                tracer, calibration_session(batch["seed"]), specs
            )
            envelopes += got
            texts += got_texts
            for key, value in got_counts.items():
                counts[key] = counts.get(key, 0) + value
        return envelopes, texts, counts


def study_session(study) -> Session:
    return Session(numerics="model-only", seed=study.seed)


def calibration_session(seed: int) -> Session:
    """A session fingerprinting like ``run_calibration``'s own."""
    return Session(numerics="model-only", noise_sigma=0.0, seed=seed)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SpmvWorkload, ShardedSpmvWorkload, CalibrateWorkload)
}
