"""Classic ``stream.c`` output rendering.

McCalpin's benchmark prints a fixed table ("Function  Best Rate MB/s  Avg
time  Min time  Max time") followed by the validation verdict; tooling in
the wild parses that shape.  This renderer reproduces it from a
:class:`~repro.core.results.StreamResult`, so the simulated benchmark's
output is drop-in recognisable.
"""

from __future__ import annotations

from repro.core.results import StreamResult
from repro.core.stream.kernels import KERNEL_ORDER, kernel_bytes_per_element

__all__ = ["render_stream_report"]


def render_stream_report(result: StreamResult) -> str:
    """The classic STREAM results table (rates in MB/s, times in seconds)."""
    lines = [
        "-" * 62,
        f"STREAM ({result.target.upper()}, {result.chip_name}): "
        f"array size = {result.n_elements} elements of "
        f"{result.element_bytes} bytes",
        "-" * 62,
        f"{'Function':12s}{'Best Rate MB/s':>16s}{'Avg time':>12s}"
        f"{'Min time':>12s}{'Max time':>12s}",
    ]
    for kernel in KERNEL_ORDER:
        if kernel not in result.kernels:
            continue
        entry = result.kernels[kernel]
        bytes_moved = kernel_bytes_per_element(
            kernel, result.element_bytes
        ) * result.n_elements
        times = [bytes_moved / (bw * 1e9) for bw in entry.bandwidths_gbs]
        best_mb_s = entry.max_gbs * 1e3  # decimal MB/s, as stream.c
        lines.append(
            f"{kernel.capitalize() + ':':12s}{best_mb_s:16.1f}"
            f"{sum(times) / len(times):12.6f}{min(times):12.6f}"
            f"{max(times):12.6f}"
        )
    lines.append("-" * 62)
    fraction = result.fraction_of_peak
    lines.append(
        f"Best bandwidth {result.max_gbs:.1f} GB/s = {fraction:.0%} of the "
        f"{result.theoretical_gbs:.0f} GB/s theoretical peak"
    )
    lines.append("Solution Validates: avg error less than 1.000000e-13 on all arrays")
    lines.append("-" * 62)
    return "\n".join(lines)
