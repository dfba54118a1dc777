"""Calibration layer: paper-reported targets and derived model parameters.

``repro.calibration.paper`` transcribes every number the paper reports
(Figures 1-4, the HPC-perspective reference points, the experiment protocol
constants).  ``repro.calibration.gemm`` and ``repro.calibration.stream`` turn
those targets into roofline efficiencies, overheads and power draws for the
simulator.  Nothing outside this package hard-codes a measured number.
"""

from repro.calibration import paper
from repro.calibration.gemm import (
    GemmCalibration,
    anchored_overhead_s,
    anchored_peak_gflops,
    anchored_power_w,
    anchored_traffic_read_factor,
    build_gemm_operation,
    gemm_calibration,
    gemm_dispatch_operation,
    gemm_flops,
    gemm_power_draws,
    max_anchorable_peak_gflops,
    mps_sgemm_operation,
)
from repro.calibration.overrides import (
    CalibrationOverlay,
    anchored_knob_value,
    derive_calibrated_chip,
    knob_value,
    overlay_for,
    validate_knob,
)
from repro.calibration.stream import (
    StreamCalibration,
    cpu_stream_bandwidth_gbs,
    cpu_stream_operations,
    gpu_stream_bandwidth_gbs,
    gpu_stream_operations,
    stream_calibration,
    stream_power_draws,
)

__all__ = [
    "paper",
    "CalibrationOverlay",
    "derive_calibrated_chip",
    "overlay_for",
    "knob_value",
    "validate_knob",
    "anchored_knob_value",
    "anchored_peak_gflops",
    "anchored_power_w",
    "anchored_overhead_s",
    "anchored_traffic_read_factor",
    "max_anchorable_peak_gflops",
    "GemmCalibration",
    "gemm_calibration",
    "gemm_flops",
    "gemm_power_draws",
    "build_gemm_operation",
    "gemm_dispatch_operation",
    "mps_sgemm_operation",
    "StreamCalibration",
    "stream_calibration",
    "cpu_stream_bandwidth_gbs",
    "gpu_stream_bandwidth_gbs",
    "stream_power_draws",
    "cpu_stream_operations",
    "gpu_stream_operations",
]
