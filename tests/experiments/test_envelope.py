"""Result envelope serialization: JSON round trips preserve every statistic."""

import pytest

from repro.core.results import (
    GemmResult,
    PoweredGemmResult,
    PowerMeasurement,
    StreamKernelResult,
    StreamResult,
)
from repro.errors import ConfigurationError
from repro.experiments import (
    GemmSpec,
    PoweredGemmSpec,
    ResultEnvelope,
    Session,
    StreamSpec,
    load_envelopes,
    result_from_dict,
    result_to_dict,
    save_envelopes,
)
from repro.workloads import get_workload, workload_kinds


def make_gemm_result() -> GemmResult:
    return GemmResult(
        impl_key="gpu-mps",
        chip_name="M4",
        n=512,
        flop_count=512 * 512 * 1023,
        elapsed_ns=(123_456_789, 120_000_017, 125_111_113),
        verified=True,
    )


def make_stream_result() -> StreamResult:
    return StreamResult(
        chip_name="M1",
        target="cpu",
        n_elements=1 << 20,
        element_bytes=4,
        theoretical_gbs=67.0,
        kernels={
            "copy": StreamKernelResult(
                kernel="copy",
                bandwidths_gbs=(55.123456789, 57.98765432101),
                best_threads=4,
            ),
            "triad": StreamKernelResult(
                kernel="triad", bandwidths_gbs=(58.0000000001, 59.3)
            ),
        },
    )


def make_powered_result() -> PoweredGemmResult:
    return PoweredGemmResult(
        gemm=make_gemm_result(),
        measurements=(
            PowerMeasurement(cpu_mw=1234.5678, gpu_mw=8765.4321, elapsed_ms=120.25),
            PowerMeasurement(cpu_mw=1200.0001, gpu_mw=8800.9999, elapsed_ms=121.5),
        ),
    )


class TestResultRoundTrips:
    def test_gemm_full_precision(self):
        result = make_gemm_result()
        back = result_from_dict(result_to_dict(result))
        assert back == result
        assert back.best_gflops == result.best_gflops
        assert back.mean_gflops == result.mean_gflops
        assert back.best_elapsed_ns == result.best_elapsed_ns
        assert back.verified is True

    def test_stream_full_precision(self):
        result = make_stream_result()
        back = result_from_dict(result_to_dict(result))
        assert back == result
        assert float(back.max_gbs) == float(result.max_gbs)
        assert float(back.fraction_of_peak) == float(result.fraction_of_peak)
        assert back.kernels["copy"].best_threads == 4
        assert back.kernels["triad"].best_threads is None

    def test_power_measurement_full_precision(self):
        m = PowerMeasurement(cpu_mw=0.1 + 0.2, gpu_mw=1e-3, elapsed_ms=3.14159)
        back = result_from_dict(result_to_dict(m))
        assert back == m
        assert back.combined_mw == m.combined_mw
        assert back.energy_j == m.energy_j

    def test_powered_gemm_full_precision(self):
        result = make_powered_result()
        back = result_from_dict(result_to_dict(result))
        assert back == result
        assert back.mean_combined_mw == result.mean_combined_mw
        assert back.efficiency_gflops_per_w == result.efficiency_gflops_per_w

    def test_unknown_type_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            result_from_dict({"type": "mystery"})

    def test_unserializable_object_rejected(self):
        with pytest.raises(ConfigurationError):
            result_to_dict(object())


class TestEnvelope:
    def test_json_round_trip(self):
        spec = GemmSpec(chip="M4", impl_key="gpu-mps", n=512, repeats=3)
        env = ResultEnvelope.create(spec, make_gemm_result())
        back = ResultEnvelope.from_json(env.to_json())
        assert back.spec == spec
        assert back.result == env.result
        assert back.spec_hash == spec.spec_hash()

    def test_meta_is_stamped(self):
        spec = StreamSpec(chip="M1", target="cpu")
        env = ResultEnvelope.create(spec, make_stream_result(), meta={"note": "x"})
        assert env.meta["spec_hash"] == spec.spec_hash()
        assert "repro_version" in env.meta
        assert env.meta["note"] == "x"

    def test_kind_mirrors_spec(self):
        env = ResultEnvelope.create(
            PoweredGemmSpec(chip="M4", impl_key="gpu-mps", n=2048),
            make_powered_result(),
        )
        assert env.kind == "powered-gemm"

    def test_schema_mismatch_rejected(self):
        spec = GemmSpec(chip="M4", impl_key="gpu-mps", n=512)
        data = ResultEnvelope.create(spec, make_gemm_result()).to_dict()
        data["schema"] = 99
        with pytest.raises(ConfigurationError):
            ResultEnvelope.from_dict(data)


@pytest.mark.parametrize("kind", workload_kinds())
class TestEveryRegisteredWorkload:
    """Registry-parametrized coverage: new workloads are tested automatically.

    Each workload supplies a cheap ``sample_spec``; executing it through a
    model-only session and round-tripping the envelope exercises the
    workload's executor, codec and spec serialization with zero edits here.
    """

    @pytest.fixture()
    def envelope(self, kind):
        spec = get_workload(kind).sample_spec()
        return Session(numerics="model-only").run(spec)

    def test_envelope_json_round_trip(self, kind, envelope):
        back = ResultEnvelope.from_json(envelope.to_json())
        assert back.spec == envelope.spec
        assert back.result == envelope.result
        assert back.kind == kind
        assert back.spec_hash == envelope.spec.spec_hash()

    def test_result_codec_round_trip(self, kind, envelope):
        data = result_to_dict(envelope.result)
        assert data["type"] == kind
        assert result_from_dict(data) == envelope.result

    def test_store_round_trip(self, kind, envelope, tmp_path):
        save_envelopes(tmp_path, [envelope])
        (loaded,) = load_envelopes(tmp_path)
        assert loaded.spec == envelope.spec
        assert loaded.result == envelope.result


class TestStore:
    def test_save_and_load(self, tmp_path):
        envs = [
            ResultEnvelope.create(
                GemmSpec(chip="M4", impl_key="gpu-mps", n=512), make_gemm_result()
            ),
            ResultEnvelope.create(
                StreamSpec(chip="M1", target="cpu"), make_stream_result()
            ),
        ]
        paths = save_envelopes(tmp_path / "out", envs)
        assert len(paths) == 2 and all(p.exists() for p in paths)
        loaded = load_envelopes(tmp_path / "out")
        assert {e.spec for e in loaded} == {e.spec for e in envs}
        assert {type(e.result) for e in loaded} == {GemmResult, StreamResult}

    def test_identical_specs_overwrite(self, tmp_path):
        env = ResultEnvelope.create(
            GemmSpec(chip="M4", impl_key="gpu-mps", n=512), make_gemm_result()
        )
        save_envelopes(tmp_path, [env])
        save_envelopes(tmp_path, [env])
        assert len(load_envelopes(tmp_path)) == 1

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_envelopes(tmp_path / "nope")
