#!/usr/bin/env python3
"""Quickstart: benchmark one GEMM on a simulated M4 and measure its power.

Runs the paper's flagship configuration — Metal Performance Shaders on the
M4 at n = 4096 — through the declarative experiment API: a frozen spec per
cell, executed by a session that owns machine construction, numerics policy
and result caching.  The underlying pipeline is unchanged: page-aligned
matrices, zero-copy Metal buffers, five chrono-timed repetitions, and the
powermetrics protocol of section 3.3.

Usage::

    python examples/quickstart.py [chip] [n]
"""

import sys

import repro


def main() -> None:
    chip = sys.argv[1] if len(sys.argv) > 1 else "M4"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 4096

    session = repro.Session(numerics="sampled")
    machine = repro.Machine.for_chip(chip)

    print(f"== {machine.device.model} ({machine.chip.name}) ==")
    print(f"Unified memory: {machine.chip.memory.bandwidth_gbs:.0f} GB/s "
          f"{machine.chip.memory.technology}")
    print(f"GPU theoretical: {machine.chip.gpu.table_fp32_tflops[1]:.2f} FP32 TFLOPS\n")

    result = session.run(repro.GemmSpec(chip=chip, impl_key="gpu-mps", n=n)).result
    print(f"GPU-MPS GEMM n={n}:")
    print(f"  best of {len(result.elapsed_ns)} repetitions: "
          f"{result.best_gflops:,.1f} GFLOPS "
          f"({result.best_elapsed_ns / 1e6:.3f} ms)")
    print(f"  numerics verified: {result.verified}")

    powered = session.run(
        repro.PoweredGemmSpec(chip=chip, impl_key="gpu-mps", n=n)
    ).result
    print(f"\nWith the powermetrics protocol (section 3.3):")
    print(f"  mean combined CPU+GPU draw: {powered.mean_combined_w:.2f} W")
    print(f"  efficiency: {powered.efficiency_gflops_per_w:.0f} GFLOPS/W")

    cpu = session.run(
        repro.GemmSpec(chip=chip, impl_key="cpu-accelerate", n=n)
    ).result
    print(f"\nFor comparison, CPU Accelerate (AMX): {cpu.best_gflops:,.1f} GFLOPS "
          f"({result.best_gflops / cpu.best_gflops:.2f}x slower than MPS)")


if __name__ == "__main__":
    main()
