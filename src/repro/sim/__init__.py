"""Execution-driven performance/power simulation substrate.

The benchmarks in this repository run their numerics for real (NumPy) while
*time* is advanced on a virtual clock by a calibrated roofline cost model and
*power* is recorded as a trace of per-component draws.  The ``powermetrics``
simulation integrates that trace exactly the way the real tool integrates
energy counters, so the paper's measurement protocol runs unmodified.
"""

from repro.sim.clock import VirtualClock
from repro.sim.trace import ExecutionTrace, TraceEvent
from repro.sim.recorder import PowerInterval, PowerRecorder
from repro.sim.roofline import OpCost, TimeBreakdown, arithmetic_intensity, roofline_time
from repro.sim.efficiency import (
    ConstantCurve,
    EfficiencyCurve,
    LogisticCurve,
    PeakDecayCurve,
    TableCurve,
)
from repro.sim.noise import DeterministicNoise, lognormal_factors, noise_entropy
from repro.sim.policy import NumericsPolicy, NumericsConfig
from repro.sim.engine import CompletedOperation, EngineKind, Operation
from repro.sim.machine import (
    Machine,
    MachineTemplate,
    engine_peak_flops,
    machine_template,
)
from repro.sim.vectorized import (
    LoweredGroup,
    LoweredSequence,
    OpColumns,
    VectorContext,
    effective_draw_w,
    evaluate_groups,
    evaluate_sequences,
    run_lowered_sequence,
    single_sequence,
    vector_context,
)

__all__ = [
    "VirtualClock",
    "TraceEvent",
    "ExecutionTrace",
    "PowerInterval",
    "PowerRecorder",
    "OpCost",
    "TimeBreakdown",
    "roofline_time",
    "arithmetic_intensity",
    "EfficiencyCurve",
    "ConstantCurve",
    "LogisticCurve",
    "PeakDecayCurve",
    "TableCurve",
    "DeterministicNoise",
    "lognormal_factors",
    "noise_entropy",
    "NumericsPolicy",
    "NumericsConfig",
    "EngineKind",
    "Operation",
    "CompletedOperation",
    "Machine",
    "MachineTemplate",
    "engine_peak_flops",
    "machine_template",
    "LoweredGroup",
    "LoweredSequence",
    "OpColumns",
    "VectorContext",
    "vector_context",
    "run_lowered_sequence",
    "single_sequence",
    "evaluate_groups",
    "evaluate_sequences",
    "effective_draw_w",
]
