"""Timed results hold their repetitions as one ``elapsed_ns`` column.

The four timed result records (GEMM, SpMV, stencil, batched GEMM) store one
timing per repetition in an ``elapsed_ns`` tuple.  Their ``repetitions``
property derives the per-repetition records, and the codecs persist the
column as one ``"elapsed_ns": [ns, ...]`` list (envelope schema 2), decoded
by the shared :func:`~repro.workloads.base.elapsed_ns_from_list`.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import GemmRepetition
from repro.errors import ConfigurationError
from repro.experiments import GemmSpec, ResultEnvelope, Session
from repro.workloads import (
    BatchedGemmSpec,
    SpmvResult,
    SpmvSpec,
    StencilSpec,
    deserialize_result,
    get_workload,
    serialize_result,
)
from repro.workloads.base import elapsed_ns_from_list, rounded_elapsed_ns

from tests.conftest import make_model_machine

TIMED_KINDS = ("gemm", "spmv", "stencil", "batched-gemm")
#: The timed kinds plus powered GEMM, whose result nests a GEMM result.
TIMED_WORKLOADS = TIMED_KINDS + ("powered-gemm",)


@pytest.fixture(scope="module")
def samples():
    """One model-only result record per timed workload."""
    session = Session(numerics="model-only")
    return {
        kind: session.run(get_workload(kind).sample_spec()).result
        for kind in TIMED_WORKLOADS
    }


columns = st.lists(
    st.integers(min_value=1, max_value=10**15), min_size=1, max_size=40
).map(tuple)


@pytest.mark.parametrize("kind", TIMED_KINDS)
class TestColumn:
    @given(elapsed_ns=columns)
    def test_codec_writes_the_column_as_one_list(self, samples, kind, elapsed_ns):
        result = dataclasses.replace(samples[kind], elapsed_ns=elapsed_ns)
        assert result.repetitions == tuple(
            GemmRepetition(i, ns) for i, ns in enumerate(elapsed_ns)
        )
        # the per-repetition loop the column statistic replaced
        assert result.best_gflops == max(
            result.flop_count / ns for ns in elapsed_ns
        )
        data = serialize_result(result)
        assert data["elapsed_ns"] == list(elapsed_ns)
        assert "repetitions" not in data
        assert elapsed_ns_from_list(data["elapsed_ns"]) == elapsed_ns
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
    """The decoder takes a non-empty JSON list of ``int`` and nothing else."""

    @pytest.mark.parametrize(
        "data",
        [{"0": 10}, (10, 20), "10", 10, None],
        ids=["dict", "tuple", "str", "int", "null"],
    )
    def test_column_must_be_a_list(self, data):
        with pytest.raises(ConfigurationError, match="list of integers"):
            elapsed_ns_from_list(data)

    def test_column_must_not_be_empty(self):
        with pytest.raises(ConfigurationError, match="at least one repetition"):
            elapsed_ns_from_list([])

    @pytest.mark.parametrize(
        "entry", [True, False, 10.0, 10.7, "10", None, [10]],
        ids=["true", "false", "float", "fraction", "str", "null", "list"],
    )
    def test_entries_must_be_ints_not_truncated(self, entry):
        # int() would turn True into 1 and 10.7 into 10 without a word
        with pytest.raises(ConfigurationError, match="must be integers"):
            elapsed_ns_from_list([10, entry])

    @pytest.mark.parametrize("bad", [0, -1])
    def test_times_must_be_positive(self, bad):
        with pytest.raises(ConfigurationError, match="positive time"):
            elapsed_ns_from_list([10, bad])


def with_column(result, elapsed_ns):
    """``result`` with its (powered-GEMM: its GEMM's) column replaced."""
    if hasattr(result, "gemm"):
        return dataclasses.replace(
            result, gemm=dataclasses.replace(result.gemm, elapsed_ns=elapsed_ns)
        )
    return dataclasses.replace(result, elapsed_ns=elapsed_ns)


@pytest.mark.parametrize("kind", TIMED_WORKLOADS)
class TestEnvelopeRoundTrip:
    """Every timed workload's ``sample_variants``, through envelope JSON."""

    @settings(max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), elapsed_ns=columns)
    def test_round_trip_keeps_the_column(self, samples, kind, seed, elapsed_ns):
        result = with_column(samples[kind], elapsed_ns)
        for spec in get_workload(kind).sample_variants(seed, 4):
            envelope = ResultEnvelope.create(spec, result)
            text = envelope.to_json()
            column = json.loads(text)["result"]
            column = column.get("gemm", column)["elapsed_ns"]
            assert column == list(elapsed_ns)
            back = ResultEnvelope.from_json(text)
            assert back == envelope
            assert back.to_json() == text


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
        data["elapsed_ns"] = [5, 0]
        with pytest.raises(ConfigurationError, match="positive time"):
            deserialize_result(data)

    @pytest.mark.parametrize(
        "lower, spec",
        [
            (get_workload("spmv").vectorized_body, SpmvSpec(chip="M1", n=4096, repeats=2)),
            (get_workload("stencil").vectorized_body, StencilSpec(chip="M1", n=64, repeats=2)),
            (
                get_workload("batched-gemm").vectorized_body,
                BatchedGemmSpec(chip="M1", n=64, batch=4, repeats=2),
            ),
        ],
        ids=["spmv", "stencil", "batched-gemm"],
    )
    def test_lowered_cell_assemble(self, lower, spec):
        # the repetition-grid rule max(1, round(...)) turns a zero-length
        # window into 1 ns, and the result it builds still refuses a zero
        sequence = lower(make_model_machine("M1"), spec)
        result = sequence.assemble(np.array([0.0, 5e-9]), np.array([5e-9, 5e-9]))
        assert result.elapsed_ns == (5, 1)
        with pytest.raises(ConfigurationError, match="positive time"):
            dataclasses.replace(result, elapsed_ns=(5, 0))

    def test_lowered_gemm_assemble(self):
        spec = GemmSpec(chip="M1", impl_key="gpu-mps", n=256, repeats=2)
        sequence = get_workload("gemm").vectorized_body(make_model_machine("M1"), spec)
        with pytest.raises(ConfigurationError, match="positive time"):
            sequence.assemble(np.array([0.0, 5e-9]), np.array([5e-9, 5e-9]))


class TestRoundedElapsedNs:
    """The repetition grids' assembly rule equals the scalar loop's
    ``max(1, round((end - start) * 1e9))`` window for window, half-way and
    sub-nanosecond windows included."""

    @settings(max_examples=200, deadline=None)
    @given(
        durations=st.lists(
            st.floats(0.0, 1e-3, allow_nan=False)
            | st.integers(0, 8).map(lambda k: k * 0.5e-9),
            min_size=1,
            max_size=40,
        ),
        origin=st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_matches_the_scalar_rule(self, durations, origin):
        starts, ends, clock = [], [], origin
        for duration in durations:
            starts.append(clock)
            clock += duration
            ends.append(clock)
        expected = tuple(
            max(1, round((end - start) * 1e9)) for start, end in zip(starts, ends)
        )
        assert rounded_elapsed_ns(np.array(starts), np.array(ends)) == expected
