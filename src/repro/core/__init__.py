"""The paper's benchmark suite — the primary contribution being reproduced.

* :mod:`repro.core.stream` — STREAM for CPU (OpenMP sweep) and GPU (Metal);
* :mod:`repro.core.gemm` — the six GEMM implementations of Table 2 plus the
  extension paths (ANE FP16, emulated FP64);
* :mod:`repro.core.power` — the powermetrics measurement protocol of §3.3.

The experiment protocol of §4 (sizes, repeats, chrono timing,
verification) runs through :class:`repro.experiments.Session`.
"""

from repro.core.data import PageAlignedAllocation, aligned_alloc, make_matrix
from repro.core.results import (
    GemmRepetition,
    GemmResult,
    PowerMeasurement,
    PoweredGemmResult,
    StreamKernelResult,
    StreamResult,
)

__all__ = [
    "aligned_alloc",
    "make_matrix",
    "PageAlignedAllocation",
    "GemmRepetition",
    "GemmResult",
    "StreamKernelResult",
    "StreamResult",
    "PowerMeasurement",
    "PoweredGemmResult",
]
