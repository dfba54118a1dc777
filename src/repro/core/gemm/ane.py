"""ANE-FP16: Neural Engine GEMM — the paper's named future work.

"A large gap left behind in this research is the lack of Neural Engine
testing" (section 7).  The Neural Engine only runs FP16/INT8 and cannot be
programmed directly (Core ML decides placement, section 2.3); this extension
models a Core-ML-dispatched FP16 matrix multiply so the precision-ablation
bench can situate the ANE against the Figure-2 FP32 results the way the
paper situates Nvidia tensor cores.

Numerically the inputs are rounded to FP16 and accumulated in FP32 (the ANE
MAC-array behaviour), so results carry genuine half-precision error — which
is exactly the paper's argument for why it is unsuited to FP32/FP64 HPC.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.calibration.gemm import gemm_dispatch_operation
from repro.core.gemm.base import GemmImplementation, GemmProblem
from repro.sim.machine import Machine
from repro.sim.policy import NumericsPolicy
from repro.soc.ane import ane_supports
from repro.soc.precision import Precision

__all__ = ["AneFp16Gemm"]


@dataclasses.dataclass
class _AneContext:
    a_fp16: np.ndarray
    b_fp16: np.ndarray


class AneFp16Gemm(GemmImplementation):
    key = "ane-fp16"
    display_name = "Core ML (Neural Engine, FP16)"
    framework = "Core ML"
    hardware = "ANE"
    in_table2 = False
    extension = True

    def supports(self, machine: Machine, n: int) -> bool:
        return ane_supports(machine.chip, Precision.FP16) and super().supports(
            machine, n
        )

    def prepare(self, machine: Machine, problem: GemmProblem) -> _AneContext:
        if machine.numerics.policy is NumericsPolicy.MODEL_ONLY:
            # No numerics will run; skip the (large) quantisation pass.
            empty = np.empty((0, 0), dtype=np.float16)
            return _AneContext(a_fp16=empty, b_fp16=empty)
        # Core ML quantises the model weights/inputs ahead of dispatch.
        return _AneContext(
            a_fp16=problem.a.astype(np.float16),
            b_fp16=problem.b.astype(np.float16),
        )

    def execute(
        self, machine: Machine, problem: GemmProblem, context: _AneContext
    ) -> None:
        self.check_supports(machine, problem.n)
        n = problem.n
        policy = machine.numerics.effective_policy(n)
        if policy is NumericsPolicy.FULL:
            acc = context.a_fp16.astype(np.float32) @ context.b_fp16.astype(np.float32)
            problem.out[...] = acc
        elif policy is NumericsPolicy.SAMPLED:
            rows = machine.numerics.sampled_row_indices(n)
            acc = context.a_fp16[rows, :].astype(np.float32) @ context.b_fp16.astype(
                np.float32
            )
            problem.out[rows, :] = acc

        machine.execute(gemm_dispatch_operation(machine.chip, self.key, n))
