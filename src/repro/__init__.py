"""repro — a reproduction of "Apple vs. Oranges: Evaluating the Apple Silicon
M-Series SoCs for HPC Performance and Efficiency" (IPDPS 2025).

Quickstart (declarative API)::

    import repro

    session = repro.Session(numerics="sampled")
    envelope = session.run(repro.GemmSpec(chip="M4", impl_key="gpu-mps", n=4096))
    print(envelope.result.best_gflops)

The package layers:

* :mod:`repro.soc` — chip/device models (Tables 1 and 3);
* :mod:`repro.sim` — the execution-driven timing/power simulator;
* :mod:`repro.metal`, :mod:`repro.accelerate`, :mod:`repro.omp`,
  :mod:`repro.powermetrics`, :mod:`repro.cuda` — framework substrates;
* :mod:`repro.core` — the paper's STREAM/GEMM/power benchmark suite;
* :mod:`repro.experiments` — declarative specs, sessions, batched parallel
  execution, and the serializable result envelope;
* :mod:`repro.workloads` — the pluggable workload registry (GEMM, STREAM,
  power, SpMV, stencil, batched GEMM) every dispatch layer resolves through;
* :mod:`repro.study` — declarative study grids (:class:`StudySpec`) and the
  envelope query layer (:class:`ResultFrame`): figures, tables and
  efficiency reports as data;
* :mod:`repro.analysis` — table rendering, paper comparison, charts and
  export.
"""

from repro._version import PAPER_ARXIV, PAPER_TITLE, __version__
from repro.analysis import (
    compare_to_paper,
    render_table1,
    render_table2,
    render_table3,
    shape_checks,
)
from repro.calibrate import (
    CalibrationResult,
    CalibrationSpec,
    MeasuredTrace,
    run_calibration,
    synthesize_trace,
)
from repro.calibration import paper
from repro.core.gemm import get_implementation, implementation_keys
from repro.core.results import (
    GemmResult,
    PoweredGemmResult,
    PowerMeasurement,
    StreamResult,
)
from repro.core.stream import run_stream
from repro.errors import (
    CalibrationError,
    CellTimeoutError,
    ReproError,
    TransientError,
    WorkerCrashError,
)
from repro.experiments import (
    BACKEND_NAMES,
    ExecutionBackend,
    FaultPlan,
    GemmSpec,
    PoweredGemmSpec,
    ResultEnvelope,
    RetryPolicy,
    RunHealth,
    RunManifest,
    Session,
    StreamSpec,
    SweepSpec,
    load_envelopes,
    run_with_manifest,
    save_envelopes,
)
from repro.sim import Machine, NumericsConfig, NumericsPolicy
from repro.soc import chip_catalog, device_catalog, get_chip
from repro.study import (
    FIGURES,
    TABLES,
    ResultFrame,
    StudySpec,
    WorkloadAxis,
    paper_study,
    run_study,
)
from repro.workloads import (
    BatchedGemmSpec,
    SpmvSpec,
    StencilSpec,
    Workload,
    get_workload,
    register_workload,
    workload_kinds,
)

__all__ = [
    "__version__",
    "PAPER_TITLE",
    "PAPER_ARXIV",
    "ReproError",
    "TransientError",
    "WorkerCrashError",
    "CellTimeoutError",
    "CalibrationError",
    "CalibrationSpec",
    "CalibrationResult",
    "MeasuredTrace",
    "run_calibration",
    "synthesize_trace",
    "FaultPlan",
    "RetryPolicy",
    "RunHealth",
    "Machine",
    "NumericsConfig",
    "NumericsPolicy",
    "GemmResult",
    "StreamResult",
    "PowerMeasurement",
    "PoweredGemmResult",
    "GemmSpec",
    "PoweredGemmSpec",
    "StreamSpec",
    "SpmvSpec",
    "StencilSpec",
    "BatchedGemmSpec",
    "SweepSpec",
    "StudySpec",
    "WorkloadAxis",
    "ResultFrame",
    "run_study",
    "paper_study",
    "FIGURES",
    "TABLES",
    "Workload",
    "register_workload",
    "get_workload",
    "workload_kinds",
    "Session",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ResultEnvelope",
    "RunManifest",
    "run_with_manifest",
    "save_envelopes",
    "load_envelopes",
    "get_chip",
    "chip_catalog",
    "device_catalog",
    "get_implementation",
    "implementation_keys",
    "run_stream",
    "paper",
    "render_table1",
    "render_table2",
    "render_table3",
    "compare_to_paper",
    "shape_checks",
]
