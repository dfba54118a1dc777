"""Declarative experiment API: specs, sessions, batches and envelopes.

The grid behind the paper's study — {M1..M4} x {STREAM, GEMM, power} x sizes
— is described by frozen :mod:`~repro.experiments.specs`, executed (and
cached, and parallelised) by a :class:`~repro.experiments.session.Session`,
and persisted as JSON :class:`~repro.experiments.envelope.ResultEnvelope`
records that figures re-render from disk::

    from repro.experiments import GemmSpec, Session

    session = Session(numerics="sampled", cache_dir="results-cache")
    env = session.run(GemmSpec(chip="M4", impl_key="gpu-mps", n=4096))
    print(env.result.best_gflops)

    sweep = SweepSpec(kind="gemm", chips=("M1", "M4"), sizes=(4096, 16384))
    envelopes = session.run_batch(sweep, max_workers=4, backend="sharded")

Batches execute through pluggable :mod:`~repro.experiments.backends`
(serial / vectorized / sharded — bit-identical by construction;
``vectorized`` batch-evaluates whole grids through
:mod:`repro.sim.vectorized` instead of per-operation Python loops, and
``sharded`` runs it inside worker processes), and
:func:`~repro.experiments.manifest.run_with_manifest` makes long campaigns
resumable: envelopes land in a sharded store indexed by a ``manifest.json``
that ``repro run --resume DIR`` completes after an interrupt.
"""

from repro.experiments.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
    VectorizedBackend,
    resolve_backend,
)
from repro.experiments.envelope import (
    ENVELOPE_SCHEMA_VERSION,
    ResultEnvelope,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.executor import (
    execute_spec,
    run_gemm_spec,
    run_powered_gemm_spec,
    run_stream_spec,
)
from repro.experiments.faults import (
    FAULT_KINDS,
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultRule,
    resolve_fault_plan,
)
from repro.experiments.resilience import CellFailure, RetryPolicy, RunHealth
from repro.experiments.session import (
    FailureCallback,
    ProgressCallback,
    Session,
)
from repro.experiments.specs import (
    NUMERICS_PROFILES,
    ExperimentSpec,
    GemmSpec,
    PoweredGemmSpec,
    StreamSpec,
    SweepSpec,
    spec_from_dict,
)
from repro.experiments.manifest import (
    MANIFEST_SCHEMA_VERSION,
    CellRecord,
    RunManifest,
    run_with_manifest,
)
from repro.experiments.store import (
    MANIFEST_FILENAME,
    atomic_write_text,
    envelope_filename,
    envelope_path,
    load_envelopes,
    save_envelopes,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "resolve_backend",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
    "CellRecord",
    "RunManifest",
    "run_with_manifest",
    "NUMERICS_PROFILES",
    "ENVELOPE_SCHEMA_VERSION",
    "ExperimentSpec",
    "GemmSpec",
    "PoweredGemmSpec",
    "StreamSpec",
    "SweepSpec",
    "spec_from_dict",
    "Session",
    "ProgressCallback",
    "FailureCallback",
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "resolve_fault_plan",
    "CellFailure",
    "RetryPolicy",
    "RunHealth",
    "ResultEnvelope",
    "result_to_dict",
    "result_from_dict",
    "execute_spec",
    "run_gemm_spec",
    "run_powered_gemm_spec",
    "run_stream_spec",
    "atomic_write_text",
    "envelope_filename",
    "envelope_path",
    "save_envelopes",
    "load_envelopes",
]
