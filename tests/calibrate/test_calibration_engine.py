"""The calibration search: self-calibration accuracy, determinism, backends.

The acceptance contract (ISSUE 10): self-calibration against a trace
generated by the anchored simulator itself must recover the anchored
parameters to <= 1 % MAPE on GFLOPS and watts for all four chips, and the
same seed + trace must reproduce a byte-identical result artifact.
"""

import pytest

from repro.calibrate import (
    CalibrationResult,
    default_spec,
    run_calibration,
    synthesize_trace,
)
from repro.calibrate.trace import MeasuredTrace
from repro.errors import CalibrationError


@pytest.fixture(scope="module")
def synthetic_trace():
    return synthesize_trace(["M1", "M4"])


@pytest.fixture(scope="module")
def fast_spec():
    # points=7 / rounds=3 lands ~0.2 % MAPE in about a second per chip;
    # 5/2 is too coarse for the 1 % band (see the CI smoke).
    return default_spec(["M1", "M4"], coarse_points=7, refine_rounds=3)


@pytest.fixture(scope="module")
def fitted(synthetic_trace, fast_spec):
    return run_calibration(synthetic_trace, fast_spec)


class TestSelfCalibration:
    def test_mape_within_acceptance_band(self, fitted):
        assert fitted.overall_mape_pct <= 1.0
        for chip, per_metric in fitted.mape.items():
            for metric, value in per_metric.items():
                assert value <= 1.0, (chip, metric, value)

    def test_recovers_anchored_parameters(self, fitted):
        for chip, knobs in fitted.fitted.items():
            for knob, value in knobs.items():
                anchor = fitted.anchors[chip][knob]
                assert value == pytest.approx(anchor, rel=0.01), (chip, knob)

    def test_scores_every_trace_metric(self, fitted):
        for chip in ("M1", "M4"):
            assert set(fitted.mape[chip]) == {
                "gflops",
                "power_w",
                "gbs",
                "overall",
            }

    def test_bookkeeping(self, fitted, fast_spec):
        assert fitted.backend == "vectorized"
        assert fitted.trace_source == "synthetic"
        assert fitted.rounds >= 1
        assert fitted.cells_evaluated > 0
        assert fitted.spec == fast_spec.to_dict()

    def test_frame_carries_final_envelopes(self, fitted):
        assert fitted.frame is not None
        assert len(fitted.frame) > 0


class TestDeterminism:
    def test_byte_identical_rerun(self, synthetic_trace, fast_spec):
        a = run_calibration(synthetic_trace, fast_spec)
        b = run_calibration(synthetic_trace, fast_spec)
        assert a.to_json() == b.to_json()

    def test_synthesize_trace_is_deterministic(self):
        a = synthesize_trace(["M2"])
        b = synthesize_trace(["M2"])
        assert a.digest() == b.digest()


class TestBackends:
    @pytest.mark.parametrize("backend", ["sharded"])
    def test_pool_backends_rejected(self, synthetic_trace, backend):
        with pytest.raises(CalibrationError, match="derived-chip registry"):
            run_calibration(synthetic_trace, backend=backend)

    @pytest.mark.parametrize("backend", ["quantum", "threads", "processes"])
    def test_unknown_backend_rejected(self, synthetic_trace, backend):
        with pytest.raises(CalibrationError, match="unknown backend"):
            run_calibration(synthetic_trace, backend=backend)

    def test_serial_backend_agrees_with_vectorized(self):
        trace = synthesize_trace(["M1"])
        spec = default_spec(
            ["M1"], knobs=["stream.gbs.cpu"], coarse_points=5, refine_rounds=1
        )
        vec = run_calibration(trace, spec, backend="vectorized").to_dict()
        ser = run_calibration(trace, spec, backend="serial").to_dict()
        assert vec.pop("backend") == "vectorized"
        assert ser.pop("backend") == "serial"
        assert vec == ser


class TestValidation:
    def test_disjoint_chips_rejected(self, synthetic_trace):
        spec = default_spec(["M2"])
        with pytest.raises(CalibrationError, match="no observations"):
            run_calibration(synthetic_trace, spec)

    def test_no_matching_knob_rejected(self):
        # A stream-only spec against a gemm-only trace has nothing to fit.
        trace = MeasuredTrace(
            observations=(
                MeasuredTrace.from_paper(["M1"]).observations[0],
            ),
            source="single",
        )
        spec = default_spec(["M1"], knobs=["stream.gbs.cpu"])
        with pytest.raises(CalibrationError, match="nothing to fit"):
            run_calibration(trace, spec)


class TestArtifacts:
    def test_out_dir_persists_result_and_store(self, synthetic_trace, tmp_path):
        spec = default_spec(
            ["M1"], knobs=["stream.gbs.cpu"], coarse_points=5, refine_rounds=1
        )
        trace = synthesize_trace(["M1"])
        result = run_calibration(trace, spec, out_dir=tmp_path)
        saved = CalibrationResult.load(tmp_path / "calibration.json")
        assert saved.to_json() == result.to_json()
        assert (tmp_path / "store").is_dir()

    def test_trace_accepts_path(self, tmp_path):
        trace = synthesize_trace(["M1"])
        path = trace.save(tmp_path / "trace.json")
        spec = default_spec(
            ["M1"], knobs=["stream.gbs.cpu"], coarse_points=5, refine_rounds=1
        )
        result = run_calibration(path, spec)
        assert result.trace_digest == trace.digest()

    def test_log_callback_sees_rounds(self, synthetic_trace):
        lines = []
        spec = default_spec(
            ["M1"], knobs=["stream.gbs.cpu"], coarse_points=5, refine_rounds=1
        )
        run_calibration(synthesize_trace(["M1"]), spec, log=lines.append)
        assert lines and "cells" in lines[0]
