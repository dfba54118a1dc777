"""Timed results hold their repetitions as one ``elapsed_ns`` column.

The four timed result records (GEMM, SpMV, stencil, batched GEMM) store one
timing per repetition in an ``elapsed_ns`` tuple.  Their ``repetitions``
property derives the per-repetition records, and the shared codec keeps
the persisted ``[{"repetition": i, "elapsed_ns": ns}, ...]`` layout.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.results import GemmRepetition
from repro.errors import ConfigurationError
from repro.experiments import GemmSpec, Session
from repro.workloads import (
    BatchedGemmSpec,
    SpmvResult,
    SpmvSpec,
    StencilSpec,
    deserialize_result,
    get_workload,
    serialize_result,
)
from repro.workloads.base import repetitions_from_dicts, repetitions_to_dicts
from repro.workloads.batched_gemm import lower_batched_gemm_spec
from repro.workloads.gemm import lower_gemm_spec
from repro.workloads.spmv import lower_spmv_spec
from repro.workloads.stencil import lower_stencil_spec

from tests.conftest import make_model_machine

TIMED_KINDS = ("gemm", "spmv", "stencil", "batched-gemm")


@pytest.fixture(scope="module")
def samples():
    """One model-only result record per timed kind."""
    session = Session(numerics="model-only")
    return {
        kind: session.run(get_workload(kind).sample_spec()).result
        for kind in TIMED_KINDS
    }


columns = st.lists(
    st.integers(min_value=1, max_value=10**15), min_size=1, max_size=40
).map(tuple)


@pytest.mark.parametrize("kind", TIMED_KINDS)
class TestColumn:
    @given(elapsed_ns=columns)
    def test_codec_keeps_the_legacy_layout(self, samples, kind, elapsed_ns):
        result = dataclasses.replace(samples[kind], elapsed_ns=elapsed_ns)
        legacy = [
            {"repetition": i, "elapsed_ns": ns}
            for i, ns in enumerate(elapsed_ns)
        ]
        assert repetitions_to_dicts(result.elapsed_ns) == legacy
        assert repetitions_from_dicts(legacy) == elapsed_ns
        assert result.repetitions == tuple(
            GemmRepetition(i, ns) for i, ns in enumerate(elapsed_ns)
        )
        # the per-repetition loop the column statistic replaced
        assert result.best_gflops == max(
            result.flop_count / ns for ns in elapsed_ns
        )
        data = serialize_result(result)
        assert data["repetitions"] == legacy
        assert deserialize_result(data) == result

    def test_statistics_read_the_column(self, samples, kind):
        result = dataclasses.replace(samples[kind], elapsed_ns=(300, 100, 200))
        assert result.best_gflops == result.flop_count / 100
        assert result.mean_gflops == pytest.approx(
            result.flop_count * (1 / 300 + 1 / 100 + 1 / 200) / 3
        )

    @pytest.mark.parametrize("elapsed_ns", [(), (5, 0), (-3,)])
    def test_constructor_rejects_what_the_column_cannot_hold(
        self, samples, kind, elapsed_ns
    ):
        with pytest.raises(ConfigurationError, match="repetition"):
            dataclasses.replace(samples[kind], elapsed_ns=elapsed_ns)

    def test_result_has_no_repetitions_field(self, samples, kind):
        names = {f.name for f in dataclasses.fields(samples[kind])}
        assert "elapsed_ns" in names and "repetitions" not in names


class TestCodecRefusals:
    @pytest.mark.parametrize(
        "indices", [(1, 0, 2), (0, 2, 1), (0, 1, 1), (1, 2, 3), (0, 2, 3)]
    )
    def test_indices_must_run_in_order(self, indices):
        data = [{"repetition": i, "elapsed_ns": 10} for i in indices]
        with pytest.raises(ConfigurationError, match="repetition indices"):
            repetitions_from_dicts(data)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_times_must_be_positive(self, bad):
        data = [
            {"repetition": 0, "elapsed_ns": 10},
            {"repetition": 1, "elapsed_ns": bad},
        ]
        with pytest.raises(ConfigurationError, match="positive time"):
            repetitions_from_dicts(data)


class TestNonPositiveTimeOnEveryPath:
    """``elapsed_ns=(5, 0)`` raises however a timed result is built."""

    def test_spmv_constructor(self):
        with pytest.raises(ConfigurationError, match="positive time"):
            SpmvResult(
                chip_name="M1",
                target="cpu",
                n=64,
                nnz=1024,
                flop_count=2048,
                bytes_moved=12_800.0,
                theoretical_gbs=67.0,
                elapsed_ns=(5, 0),
            )

    def test_spmv_codec(self, samples):
        data = serialize_result(samples["spmv"])
        data["repetitions"] = [
            {"repetition": 0, "elapsed_ns": 5},
            {"repetition": 1, "elapsed_ns": 0},
        ]
        with pytest.raises(ConfigurationError, match="positive time"):
            deserialize_result(data)

    @pytest.mark.parametrize(
        "lower, spec",
        [
            (lower_spmv_spec, SpmvSpec(chip="M1", n=4096, repeats=2)),
            (lower_stencil_spec, StencilSpec(chip="M1", n=64, repeats=2)),
            (
                lower_batched_gemm_spec,
                BatchedGemmSpec(chip="M1", n=64, batch=4, repeats=2),
            ),
        ],
        ids=["spmv", "stencil", "batched-gemm"],
    )
    def test_lowered_cell_assemble(self, lower, spec):
        cell = lower(make_model_machine("M1"), spec)
        with pytest.raises(ConfigurationError, match="positive time"):
            cell.assemble((5, 0))

    def test_lowered_gemm_assemble(self):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256, repeats=2)
        sequence = lower_gemm_spec(make_model_machine("M1"), spec)
        with pytest.raises(ConfigurationError, match="positive time"):
            sequence.assemble(((0.0, 5e-9), (5e-9, 5e-9)))
