"""Result records produced by the benchmark suite.

Aggregation rules follow the paper: STREAM reports the *maximum* bandwidth
over repetitions (section 4); GEMM figures quote peak GFLOPS over the five
repetitions; the power study reports the mean draw over the measured windows.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.units import gflops_per_watt

__all__ = [
    "GemmRepetition",
    "GemmResult",
    "StreamKernelResult",
    "StreamResult",
    "PowerMeasurement",
    "PoweredGemmResult",
    "check_elapsed_ns",
    "repetition_view",
    "summarize_series",
]


@dataclasses.dataclass(frozen=True)
class GemmRepetition:
    """One timed multiplication."""

    repetition: int
    elapsed_ns: int

    def __post_init__(self) -> None:
        if self.elapsed_ns <= 0:
            raise ConfigurationError("repetition must take positive time")


def check_elapsed_ns(elapsed_ns: tuple[int, ...]) -> None:
    """Validate a timed result's repetition column.

    The shared ``__post_init__`` check of every timed result record: at
    least one repetition, and every repetition took positive time.
    """
    if not elapsed_ns:
        raise ConfigurationError(
            "a timed result needs at least one repetition"
        )
    if min(elapsed_ns) <= 0:
        raise ConfigurationError("repetition must take positive time")


def repetition_view(elapsed_ns: tuple[int, ...]) -> tuple[GemmRepetition, ...]:
    """``(GemmRepetition(0, ns), GemmRepetition(1, ns), ...)`` of a column.

    Timed results store their repetitions as one ``elapsed_ns`` tuple; this
    derives the per-repetition records their ``repetitions`` property shows.
    """
    return tuple(GemmRepetition(rep, ns) for rep, ns in enumerate(elapsed_ns))


@dataclasses.dataclass(frozen=True)
class GemmResult:
    """All repetitions of one (implementation, chip, n) cell of Figure 2.

    ``elapsed_ns`` holds one timing per repetition, in repetition order.
    """

    impl_key: str
    chip_name: str
    n: int
    flop_count: int
    elapsed_ns: tuple[int, ...]
    verified: bool | None = None

    def __post_init__(self) -> None:
        check_elapsed_ns(self.elapsed_ns)
        if self.flop_count <= 0:
            raise ConfigurationError("FLOP count must be positive")

    @property
    def repetitions(self) -> tuple[GemmRepetition, ...]:
        """Per-repetition records, derived from ``elapsed_ns``."""
        return repetition_view(self.elapsed_ns)

    @property
    def best_gflops(self) -> float:
        return self.flop_count / self.best_elapsed_ns  # flops/ns == GFLOPS

    @property
    def mean_gflops(self) -> float:
        return statistics.fmean(self.flop_count / ns for ns in self.elapsed_ns)

    @property
    def best_elapsed_ns(self) -> int:
        return min(self.elapsed_ns)

    @property
    def mean_elapsed_ns(self) -> float:
        return statistics.fmean(self.elapsed_ns)


@dataclasses.dataclass(frozen=True)
class StreamKernelResult:
    """Per-repetition bandwidths of one STREAM kernel."""

    kernel: str
    bandwidths_gbs: tuple[float, ...]
    best_threads: int | None = None

    def __post_init__(self) -> None:
        if not self.bandwidths_gbs:
            raise ConfigurationError("a STREAM kernel result needs repetitions")
        if any(bw <= 0.0 for bw in self.bandwidths_gbs):
            raise ConfigurationError("bandwidths must be positive")

    @property
    def max_gbs(self) -> float:
        """The paper's reported statistic ("only the maximum is considered")."""
        return max(self.bandwidths_gbs)

    @property
    def mean_gbs(self) -> float:
        return statistics.fmean(self.bandwidths_gbs)


@dataclasses.dataclass(frozen=True)
class StreamResult:
    """One STREAM run (one chip, one target processor)."""

    chip_name: str
    target: str  # "cpu" | "gpu"
    n_elements: int
    element_bytes: int
    kernels: Mapping[str, StreamKernelResult]
    theoretical_gbs: float

    def __post_init__(self) -> None:
        if self.target not in ("cpu", "gpu"):
            raise ConfigurationError("STREAM target must be 'cpu' or 'gpu'")
        if not self.kernels:
            raise ConfigurationError("a STREAM result needs at least one kernel")

    @property
    def max_gbs(self) -> float:
        """Best bandwidth over all kernels — the Figure-1 bar height."""
        return max(k.max_gbs for k in self.kernels.values())

    @property
    def fraction_of_peak(self) -> float:
        """Best kernel bandwidth as a fraction of the theoretical peak."""
        return self.max_gbs / self.theoretical_gbs


@dataclasses.dataclass(frozen=True)
class PowerMeasurement:
    """One parsed powermetrics window (the paper's measurement sample)."""

    cpu_mw: float
    gpu_mw: float
    elapsed_ms: float

    def __post_init__(self) -> None:
        if self.elapsed_ms <= 0.0:
            raise ConfigurationError("measurement window must be positive")
        if self.cpu_mw < 0.0 or self.gpu_mw < 0.0:
            raise ConfigurationError("power must be non-negative")

    @property
    def combined_mw(self) -> float:
        """CPU + GPU draw, the Figure-3 quantity."""
        return self.cpu_mw + self.gpu_mw

    @property
    def combined_w(self) -> float:
        return self.combined_mw / 1e3

    @property
    def energy_j(self) -> float:
        return self.combined_w * self.elapsed_ms / 1e3


@dataclasses.dataclass(frozen=True)
class PoweredGemmResult:
    """A GEMM result with its piggybacked power measurements (section 3.3)."""

    gemm: GemmResult
    measurements: tuple[PowerMeasurement, ...]

    def __post_init__(self) -> None:
        if not self.measurements:
            raise ConfigurationError("a powered result needs measurements")

    @property
    def mean_combined_mw(self) -> float:
        return statistics.fmean(m.combined_mw for m in self.measurements)

    @property
    def mean_combined_w(self) -> float:
        return self.mean_combined_mw / 1e3

    @property
    def efficiency_gflops_per_w(self) -> float:
        """Figure-4 metric: peak GFLOPS over mean measured power."""
        return gflops_per_watt(self.gemm.best_gflops, self.mean_combined_w)


def summarize_series(values: Sequence[float]) -> dict[str, float]:
    """Common summary statistics for reporting/export."""
    if not values:
        raise ConfigurationError("cannot summarise an empty series")
    data = list(values)
    return {
        "min": min(data),
        "max": max(data),
        "mean": statistics.fmean(data),
        "stdev": statistics.pstdev(data) if len(data) > 1 else 0.0,
    }
