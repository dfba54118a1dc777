"""Metal Performance Shaders: matrix multiplication.

Reproduces the API surface of the paper's Listing 2: descriptors, matrices
wrapping ``MTLBuffer`` storage, and ``MPSMatrixMultiplication`` encoding into
a command buffer.  MPS computes ``C = alpha * op(A) op(B) + beta * C``; the
paper uses the plain ``C = A B`` configuration.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.calibration.gemm import mps_sgemm_operation
from repro.metal.buffer import MTLBuffer
from repro.metal.command_buffer import MTLCommandBuffer
from repro.metal.errors import MPSError
from repro.sim.policy import NumericsPolicy

if True:  # keep import order tidy for the TYPE_CHECKING-free module
    from repro.metal.device import MTLDevice

__all__ = [
    "MPSDataType",
    "MPSMatrixDescriptor",
    "MPSMatrix",
    "MPSMatrixMultiplication",
]


class MPSDataType(enum.Enum):
    FLOAT32 = ("float32", 4)
    FLOAT16 = ("float16", 2)

    def __init__(self, key: str, nbytes: int) -> None:
        self.key = key
        self.nbytes = nbytes

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self is MPSDataType.FLOAT32 else np.float16)


@dataclasses.dataclass(frozen=True)
class MPSMatrixDescriptor:
    """Shape and layout of an MPS matrix (``matrixDescriptorWithRows:...``)."""

    rows: int
    columns: int
    row_bytes: int
    data_type: MPSDataType = MPSDataType.FLOAT32

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise MPSError("matrix dimensions must be positive")
        if self.row_bytes < self.columns * self.data_type.nbytes:
            raise MPSError(
                f"rowBytes {self.row_bytes} < columns * element size "
                f"({self.columns * self.data_type.nbytes})"
            )
        if self.row_bytes % self.data_type.nbytes != 0:
            raise MPSError("rowBytes must be a multiple of the element size")

    @property
    def required_length(self) -> int:
        return self.rows * self.row_bytes


class MPSMatrix:
    """A matrix view over an ``MTLBuffer``."""

    def __init__(self, buffer: MTLBuffer, descriptor: MPSMatrixDescriptor) -> None:
        if buffer.length < descriptor.required_length:
            raise MPSError(
                f"buffer of {buffer.length} bytes too small for descriptor "
                f"needing {descriptor.required_length}"
            )
        self.buffer = buffer
        self.descriptor = descriptor

    def _array(self) -> np.ndarray:
        """Row-strided device-side view honouring ``rowBytes``."""
        desc = self.descriptor
        elem = desc.data_type.nbytes
        stride_elems = desc.row_bytes // elem
        full = self.buffer.as_array(
            desc.data_type.dtype, (desc.rows, stride_elems), gpu=True
        )
        return full[:, : desc.columns]


class MPSMatrixMultiplication:
    """``C = alpha * op(A) op(B) + beta * C`` on the GPU."""

    def __init__(
        self,
        device: MTLDevice,
        *,
        result_rows: int,
        result_columns: int,
        interior_columns: int,
        transpose_left: bool = False,
        transpose_right: bool = False,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> None:
        if min(result_rows, result_columns, interior_columns) < 1:
            raise MPSError("matrix multiplication dimensions must be positive")
        self.device = device
        self.result_rows = result_rows
        self.result_columns = result_columns
        self.interior_columns = interior_columns
        self.transpose_left = transpose_left
        self.transpose_right = transpose_right
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _check_shapes(
        self, left: MPSMatrix, right: MPSMatrix, result: MPSMatrix
    ) -> None:
        lrows, lcols = left.descriptor.rows, left.descriptor.columns
        if self.transpose_left:
            lrows, lcols = lcols, lrows
        rrows, rcols = right.descriptor.rows, right.descriptor.columns
        if self.transpose_right:
            rrows, rcols = rcols, rrows
        if (lrows, lcols) != (self.result_rows, self.interior_columns):
            raise MPSError(
                f"left matrix is {lrows}x{lcols}, expected "
                f"{self.result_rows}x{self.interior_columns}"
            )
        if (rrows, rcols) != (self.interior_columns, self.result_columns):
            raise MPSError(
                f"right matrix is {rrows}x{rcols}, expected "
                f"{self.interior_columns}x{self.result_columns}"
            )
        if (result.descriptor.rows, result.descriptor.columns) != (
            self.result_rows,
            self.result_columns,
        ):
            raise MPSError(
                f"result matrix is {result.descriptor.rows}x"
                f"{result.descriptor.columns}, expected "
                f"{self.result_rows}x{self.result_columns}"
            )

    def encode_to_command_buffer(
        self,
        command_buffer: MTLCommandBuffer,
        left_matrix: MPSMatrix,
        right_matrix: MPSMatrix,
        result_matrix: MPSMatrix,
    ) -> None:
        """Encode ``C = alpha op(A) op(B) + beta C`` into the command buffer."""
        self._check_shapes(left_matrix, right_matrix, result_matrix)
        kernel = self

        def run() -> None:
            machine = kernel.device.machine
            m, n, k = (
                kernel.result_rows,
                kernel.result_columns,
                kernel.interior_columns,
            )
            policy = machine.numerics.effective_policy(max(m, n, k))
            if policy is not NumericsPolicy.MODEL_ONLY:
                a = left_matrix._array()
                if kernel.transpose_left:
                    a = a.T
                b = right_matrix._array()
                if kernel.transpose_right:
                    b = b.T
                c = result_matrix._array()
                alpha = np.float32(kernel.alpha)
                beta = np.float32(kernel.beta)
                if policy is NumericsPolicy.SAMPLED:
                    rows = machine.numerics.sampled_row_indices(m)
                    product = (a[rows, :] @ b).astype(np.float32, copy=False)
                    if kernel.beta == 0.0:
                        c[rows, :] = alpha * product
                    else:
                        c[rows, :] = alpha * product + beta * c[rows, :]
                else:
                    product = (a @ b).astype(np.float32, copy=False)
                    if kernel.beta == 0.0:
                        c[...] = alpha * product
                    else:
                        c[...] = alpha * product + beta * c

            machine.execute(mps_sgemm_operation(machine.chip, m, n, k))

        command_buffer._enqueue(run)
