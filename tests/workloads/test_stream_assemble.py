"""The STREAM assembler on the ``assemble(starts, ends)`` rows.

A CPU cell's positions run (thread count, repetition, kernel), so the
assembler views the per-dispatch GB/s as a ``(settings, ntimes, 4)`` array
and keeps, per kernel, the first setting holding the largest maximum.
These tests pin that against the benchmark's own selection rule — group
every window by (thread count, kernel), keep the maximum, and replace the
incumbent only on a strictly larger one — including ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration.stream import STREAM_KERNELS
from repro.errors import ConfigurationError
from repro.experiments import StreamSpec
from repro.soc.catalog import get_chip
from repro.workloads import get_workload
from tests.conftest import make_model_machine

N_ELEMENTS = 1 << 16


def lowered(target: str, chip: str = "M1", repeats: int = 3):
    spec = StreamSpec(
        chip=chip, target=target, n_elements=N_ELEMENTS, repeats=repeats
    )
    return get_workload("stream").vectorized_body(make_model_machine(chip), spec)


def equal_windows(count: int, width: float = 1e-3):
    return np.zeros(count), np.full(count, width)


def benchmark_selection(ops, threads_per_position, starts, ends):
    """The STREAM driver's rule, one window at a time in dispatch order."""
    per_setting: dict = {}
    for op, threads, kernel, start, end in zip(
        ops,
        threads_per_position,
        STREAM_KERNELS * (len(ops) // 4),
        starts.tolist(),
        ends.tolist(),
    ):
        per_setting.setdefault((threads, kernel), []).append(
            op.cost.total_bytes / (end - start) / 1e9
        )
    best: dict = {}
    for (threads, kernel), values in per_setting.items():
        if kernel not in best or max(values) > max(best[kernel][1]):
            best[kernel] = (threads, tuple(values))
    return best


def cpu_threads_per_position(chip: str, repeats: int):
    cores = get_chip(chip).total_cores
    return [t for t in range(1, cores + 1) for _ in range(repeats * 4)]


class TestSelection:
    def test_equal_widths_keep_one_thread_for_every_cpu_kernel(self):
        sequence = lowered("cpu")
        result = sequence.assemble(*equal_windows(len(sequence.ops)))
        assert list(result.kernels) == list(STREAM_KERNELS)
        for kernel, op in zip(STREAM_KERNELS, sequence.ops):
            assert result.kernels[kernel].best_threads == 1
            assert result.kernels[kernel].bandwidths_gbs == (
                op.cost.total_bytes / 1e-3 / 1e9,
            ) * 3

    def test_gpu_cell_keeps_no_thread_count(self):
        sequence = lowered("gpu", repeats=5)
        result = sequence.assemble(*equal_windows(len(sequence.ops)))
        assert list(result.kernels) == list(STREAM_KERNELS)
        assert all(k.best_threads is None for k in result.kernels.values())
        assert all(len(k.bandwidths_gbs) == 5 for k in result.kernels.values())

    def test_one_faster_window_moves_only_its_kernel(self):
        sequence = lowered("cpu", repeats=3)
        starts, ends = equal_windows(len(sequence.ops))
        # thread count 3, repetition 1, kernel "add": a shorter window
        ends[(2 * 3 + 1) * 4 + 2] = 0.5e-3
        result = sequence.assemble(starts, ends)
        assert {k: r.best_threads for k, r in result.kernels.items()} == {
            "copy": 1,
            "scale": 1,
            "add": 3,
            "triad": 1,
        }

    @pytest.mark.parametrize("target", ["cpu", "gpu"])
    @pytest.mark.parametrize("width", [0.0, -1e-9, float("nan")])
    def test_non_positive_window_raises(self, target, width):
        sequence = lowered(target)
        starts, ends = equal_windows(len(sequence.ops))
        ends[5] = starts[5] + width
        with pytest.raises(ConfigurationError, match="positive"):
            sequence.assemble(starts, ends)

    @settings(max_examples=60, deadline=None)
    @given(
        chip=st.sampled_from(["M1", "M4"]),
        repeats=st.integers(1, 4),
        data=st.data(),
    )
    def test_matches_the_benchmark_rule_with_ties(self, chip, repeats, data):
        sequence = lowered("cpu", chip=chip, repeats=repeats)
        count = len(sequence.ops)
        # a handful of widths, so equal maxima across settings are common
        widths = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([1e-3, 2e-3, 2.5e-3, 4e-3]),
                    min_size=count,
                    max_size=count,
                )
            )
        )
        starts = np.zeros(count)
        ends = starts + widths
        result = sequence.assemble(starts, ends)
        expected = benchmark_selection(
            sequence.ops, cpu_threads_per_position(chip, repeats), starts, ends
        )
        assert {
            kernel: (r.best_threads, r.bandwidths_gbs)
            for kernel, r in result.kernels.items()
        } == expected
