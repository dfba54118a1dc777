"""Ablation: the OMP_NUM_THREADS sweep of the CPU STREAM (section 3.1).

Regenerates the per-thread-count bandwidth curve the paper's sweep explores
and verifies its saturating shape: near-linear at first, flat at the core
count, no benefit beyond.
"""

import pytest

from benchmarks.conftest import model_machine
from repro.core.stream.cpu import CpuStreamBenchmark


@pytest.mark.parametrize("chip", ["M1", "M4"])
def test_thread_sweep_curve(benchmark, chip):
    cores = model_machine(chip).chip.total_cores

    def run():
        # A fresh machine per round: a reused one continues its noise
        # counters, so its rounds would not repeat one measurement.
        bench = CpuStreamBenchmark(model_machine(chip), n_elements=1 << 21, ntimes=3)
        return {
            threads: bench.run(threads)["triad"].max_gbs
            for threads in range(1, cores + 1)
        }

    curve = benchmark.pedantic(run, rounds=2, iterations=1)
    print(f"\n{chip} triad GB/s by OMP_NUM_THREADS:")
    for threads, gbs in curve.items():
        print(f"  T={threads:2d}: {gbs:6.1f}")

    values = [curve[t] for t in sorted(curve)]
    assert values == sorted(values)  # monotone non-decreasing
    # Saturation: the last doubling of threads buys little.
    half = curve[max(1, cores // 2)]
    full = curve[cores]
    assert full / half < 1.35
    # But a single thread is far from the link limit.
    assert curve[1] < 0.7 * full


def test_threads_beyond_cores_no_gain(benchmark):
    machine = model_machine("M1")

    def run():
        machine.reset_measurements()
        bench = CpuStreamBenchmark(machine, n_elements=1 << 21, ntimes=2)
        at_cores = bench.run(machine.chip.total_cores)["triad"].max_gbs
        oversub = bench.run(4 * machine.chip.total_cores)["triad"].max_gbs
        return at_cores, oversub

    at_cores, oversub = benchmark.pedantic(run, rounds=2, iterations=1)
    print(f"\nM1 triad: {at_cores:.1f} GB/s at 8T, {oversub:.1f} GB/s at 32T")
    assert oversub <= at_cores * 1.02
