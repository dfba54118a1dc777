"""STREAM kernel definitions and validation (McCalpin's stream.c semantics).

The four kernels and their byte/FLOP accounting
(:data:`~repro.calibration.stream.STREAM_ACCOUNTING`, which the simulated
dispatches are built from) follow the original benchmark exactly::

    copy :  c = a          2 arrays moved, 0 FLOPs per element
    scale:  b = s * c      2 arrays moved, 1 FLOP  per element
    add  :  c = a + b      3 arrays moved, 1 FLOP  per element
    triad:  a = b + s * c  3 arrays moved, 2 FLOPs per element

with initial values a=1, b=2, c=0 and scalar s=3, and the closed-form
expected values after k full iterations used by ``checkSTREAMresults``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.calibration.stream import STREAM_ACCOUNTING, STREAM_KERNELS
from repro.errors import ConfigurationError, ValidationError

__all__ = [
    "KERNEL_ORDER",
    "SCALAR",
    "StreamArrays",
    "kernel_bytes_per_element",
    "kernel_flops_per_element",
    "expected_values",
    "validate_arrays",
]

KERNEL_ORDER: tuple[str, ...] = STREAM_KERNELS

#: stream.c's scalar.
SCALAR = 3.0


def _accounting(kernel: str) -> tuple[int, int, int]:
    try:
        return STREAM_ACCOUNTING[kernel]
    except KeyError:
        raise ConfigurationError(f"unknown STREAM kernel {kernel!r}") from None


def kernel_bytes_per_element(kernel: str, element_bytes: int) -> int:
    """STREAM's byte accounting for one element (arrays read + written)."""
    reads, writes, _flops = _accounting(kernel)
    return (reads + writes) * element_bytes


def kernel_flops_per_element(kernel: str) -> int:
    """STREAM's FLOP accounting for one element of a kernel."""
    return _accounting(kernel)[2]


@dataclasses.dataclass
class StreamArrays:
    """The three STREAM arrays with stream.c's initial values."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @classmethod
    def allocate(
        cls, n_elements: int, dtype: np.dtype | type = np.float64
    ) -> "StreamArrays":
        if n_elements <= 0:
            raise ConfigurationError("STREAM needs a positive element count")
        dt = np.dtype(dtype)
        return cls(
            a=np.full(n_elements, 1.0, dtype=dt),
            b=np.full(n_elements, 2.0, dtype=dt),
            c=np.zeros(n_elements, dtype=dt),
        )

    def run_kernel(self, kernel: str) -> None:
        """Execute one kernel in place (stream.c order within an iteration)."""
        if kernel == "copy":
            self.c[:] = self.a
        elif kernel == "scale":
            self.b[:] = self.b.dtype.type(SCALAR) * self.c
        elif kernel == "add":
            self.c[:] = self.a + self.b
        elif kernel == "triad":
            self.a[:] = self.b + self.b.dtype.type(SCALAR) * self.c
        else:
            raise ConfigurationError(f"unknown STREAM kernel {kernel!r}")

    def run_iteration(self) -> None:
        """One full Copy/Scale/Add/Triad pass."""
        for kernel in KERNEL_ORDER:
            self.run_kernel(kernel)


def expected_values(iterations: int) -> tuple[float, float, float]:
    """(a, b, c) scalars after ``iterations`` full passes (stream.c check)."""
    if iterations < 0:
        raise ConfigurationError("iteration count must be non-negative")
    a, b, c = 1.0, 2.0, 0.0
    for _ in range(iterations):
        c = a
        b = SCALAR * c
        c = a + b
        a = b + SCALAR * c
    return a, b, c


def validate_arrays(arrays: StreamArrays, iterations: int, rtol: float = 1e-8) -> None:
    """stream.c's checkSTREAMresults: all entries equal the expected scalars."""
    exp_a, exp_b, exp_c = expected_values(iterations)
    for name, arr, expected in (
        ("a", arrays.a, exp_a),
        ("b", arrays.b, exp_b),
        ("c", arrays.c, exp_c),
    ):
        # Relative tolerance scales with the float type's epsilon, as the
        # original's epsilon-based check does.
        eps = float(np.finfo(arr.dtype).eps)
        tol = max(rtol, 20.0 * eps * max(1.0, abs(expected)))
        err = float(np.max(np.abs(arr.astype(np.float64) - expected)))
        if err > tol * max(1.0, abs(expected)):
            raise ValidationError(
                f"STREAM validation failed for array {name} after "
                f"{iterations} iterations: max error {err:.3e} vs "
                f"expected {expected!r}"
            )
