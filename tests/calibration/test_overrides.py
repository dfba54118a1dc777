"""Derived chips and calibration knob overlays."""

import pytest

from repro.calibration import paper
from repro.calibration.gemm import gemm_calibration, max_anchorable_peak_gflops
from repro.calibration.overrides import (
    KNOB_CATEGORIES,
    CalibrationOverlay,
    anchored_knob_value,
    derive_calibrated_chip,
    knob_value,
    overlay_for,
    validate_knob,
)
from repro.calibration.stream import stream_calibration
from repro.errors import CalibrationError, ConfigurationError
from repro.sim.machine import Machine
from repro.soc.catalog import (
    base_chip_name,
    derived_chip_base,
    get_chip,
    register_derived_chip,
)
from repro.soc.device import device_for_chip
from repro.soc.power import default_envelope_for


class TestKnobGrammar:
    @pytest.mark.parametrize(
        "knob",
        [
            "gemm.peak_gflops.gpu-mps",
            "gemm.power_w.cpu-accelerate",
            "gemm.overhead_s.gpu-naive",
            "gemm.traffic_read_factor.cpu-omp",
            "stream.gbs.cpu",
            "stream.gbs.gpu",
        ],
    )
    def test_valid_knobs(self, knob):
        validate_knob(knob)  # does not raise

    @pytest.mark.parametrize(
        "knob",
        [
            "gemm.peak_gflops",  # no qualifier
            "nonsense",
            "stream.gbs.ane",
            "gemm.power_w.not-an-impl",
            "gemm.peak_gflops.gpu-fp64-emulated",  # derives, no Figure-2 anchor
        ],
    )
    def test_invalid_knobs(self, knob):
        with pytest.raises(CalibrationError):
            validate_knob(knob)

    def test_malformed_knob_raises_on_every_call(self):
        """The grammar check is memoized, but its exceptions are not."""
        for _ in range(2):
            with pytest.raises(CalibrationError, match="malformed"):
                validate_knob("gemm.bogus.gpu-mps")
            with pytest.raises(CalibrationError, match="malformed"):
                derive_calibrated_chip("M1", {"gemm.bogus.gpu-mps": 1.0})

    def test_categories_are_read_only(self):
        with pytest.raises(TypeError):
            KNOB_CATEGORIES["new"] = True  # type: ignore[index]


class TestAnchoredValues:
    def test_peak_matches_figure_2(self):
        assert anchored_knob_value("M1", "gemm.peak_gflops.gpu-mps") == (
            paper.FIG2_PEAK_GFLOPS["gpu-mps"]["M1"]
        )

    def test_power_matches_figures_2_and_4(self):
        watts = anchored_knob_value("M2", "gemm.power_w.gpu-mps")
        expected = (
            paper.FIG2_PEAK_GFLOPS["gpu-mps"]["M2"]
            / paper.FIG4_EFFICIENCY_GFLOPS_PER_W["gpu-mps"]["M2"]
        )
        assert watts == pytest.approx(expected, rel=0.02)

    def test_stream_matches_figure_1(self):
        assert anchored_knob_value("M3", "stream.gbs.cpu") == pytest.approx(
            paper.FIG1_CPU_MAX_GBS["M3"]
        )
        assert anchored_knob_value("M3", "stream.gbs.gpu") == pytest.approx(
            paper.FIG1_GPU_MAX_GBS["M3"]
        )

    def test_derived_chip_resolves_to_base_anchor(self):
        name = derive_calibrated_chip("M1", {"stream.gbs.cpu": 70.0})
        assert anchored_knob_value(name, "stream.gbs.cpu") == pytest.approx(
            paper.FIG1_CPU_MAX_GBS["M1"]
        )


class TestDerivedChips:
    def test_name_is_content_addressed(self):
        a = derive_calibrated_chip("M1", {"stream.gbs.cpu": 65.0})
        b = derive_calibrated_chip("m1", {"stream.gbs.cpu": 65.0})
        c = derive_calibrated_chip("M1", {"stream.gbs.cpu": 66.0})
        assert a == b
        assert a != c
        assert a.startswith("M1+CAL")

    def test_resolves_through_catalog(self):
        name = derive_calibrated_chip("M4", {"stream.gbs.gpu": 110.0})
        chip = get_chip(name)
        assert chip.name == name
        assert derived_chip_base(name) == "M4"
        assert base_chip_name(name) == "M4"
        assert base_chip_name("M4") == "M4"

    def test_device_and_envelope_fall_back_to_base(self):
        name = derive_calibrated_chip("M2", {"stream.gbs.cpu": 80.0})
        device = device_for_chip(name)
        assert device.chip_name == name
        assert device.model == device_for_chip("M2").model
        assert default_envelope_for(name) == default_envelope_for("M2")

    def test_machine_accepts_derived_chip(self):
        name = derive_calibrated_chip("M1", {"stream.gbs.cpu": 64.0})
        machine = Machine.for_chip(name, noise_sigma=0.0)
        assert machine.chip.name == name

    def test_validation(self):
        with pytest.raises(CalibrationError, match="catalog chips"):
            derive_calibrated_chip("Xeon", {"stream.gbs.cpu": 64.0})
        with pytest.raises(CalibrationError, match="at least one knob"):
            derive_calibrated_chip("M1", {})
        with pytest.raises(CalibrationError, match="positive"):
            derive_calibrated_chip("M1", {"stream.gbs.cpu": -1.0})
        with pytest.raises(CalibrationError):
            derive_calibrated_chip("M1", {"bogus.knob": 1.0})

    def test_overlay_and_knob_value_lookup(self):
        name = derive_calibrated_chip("M3", {"gemm.peak_gflops.gpu-mps": 3000.0})
        overlay = overlay_for(name)
        assert overlay is not None and overlay.base == "M3"
        assert knob_value(name, "gemm.peak_gflops.gpu-mps") == 3000.0
        assert knob_value(name, "stream.gbs.cpu") is None
        assert knob_value("M3", "gemm.peak_gflops.gpu-mps") is None
        assert overlay_for("M3") is None

    def test_catalog_shadow_rejected(self):
        with pytest.raises(ConfigurationError, match="shadow"):
            register_derived_chip(get_chip("M1"), "M2")


class TestDerivationMemo:
    """A search re-derives candidates; a repeat skips the digest."""

    def test_repeat_returns_the_name_without_rebuilding_the_digest(
        self, monkeypatch
    ):
        calls = []
        digest = CalibrationOverlay.digest

        def counted(overlay):
            calls.append(overlay)
            return digest(overlay)

        monkeypatch.setattr(CalibrationOverlay, "digest", counted)
        values = {"gemm.overhead_s.gpu-mps": 3.25e-5, "stream.gbs.gpu": 61.25}
        first = derive_calibrated_chip("M1", values)
        assert len(calls) == 1
        assert derive_calibrated_chip("M1", dict(values)) == first
        assert len(calls) == 1
        assert get_chip(first).name == first

    def test_int_float_and_bool_values_name_distinct_chips(self):
        names = {
            derive_calibrated_chip("M2", {"stream.gbs.cpu": value})
            for value in (1, 1.0, True)
        }
        assert len(names) == 3
        # and each repeat still resolves to its own name
        assert derive_calibrated_chip("M2", {"stream.gbs.cpu": 1}) in names
        assert knob_value(
            derive_calibrated_chip("M2", {"stream.gbs.cpu": True}),
            "stream.gbs.cpu",
        ) is True

    def test_bad_knob_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(CalibrationError, match="positive"):
                derive_calibrated_chip("M3", {"stream.gbs.cpu": 0.0})
            with pytest.raises(CalibrationError, match="catalog chips"):
                derive_calibrated_chip("Xeon", {"stream.gbs.cpu": 64.0})

    def test_hit_must_still_be_registered(self, monkeypatch):
        from repro.soc import catalog

        values = {"stream.gbs.cpu": 62.75}
        name = derive_calibrated_chip("M4", values)
        monkeypatch.setattr(catalog, "_DERIVED", {})
        assert derive_calibrated_chip("M4", values) == name
        assert derived_chip_base(name) == "M4"


class TestKnobEffects:
    def test_peak_knob_moves_forward_model(self):
        import repro

        session = repro.Session(numerics="model-only", noise_sigma=0.0)
        name = derive_calibrated_chip("M1", {"gemm.peak_gflops.gpu-mps": 1500.0})
        base_env, knob_env = session.run_batch(
            [
                repro.GemmSpec(chip=chip, impl_key="gpu-mps", n=16384)
                for chip in ("M1", name)
            ]
        )
        assert base_env.result.best_gflops == pytest.approx(1360.0, rel=0.01)
        assert knob_env.result.best_gflops == pytest.approx(1500.0, rel=0.01)

    def test_bandwidth_knob_rescales_preserving_ratios(self):
        base = stream_calibration(get_chip("M2"))
        name = derive_calibrated_chip("M2", {"stream.gbs.cpu": 100.0})
        scaled = stream_calibration(get_chip(name))
        assert scaled.cpu_max_gbs() == pytest.approx(100.0)
        ratio = 100.0 / base.cpu_max_gbs()
        for kernel, value in base.cpu_targets_gbs.items():
            assert scaled.cpu_targets_gbs[kernel] == pytest.approx(value * ratio)
        # GPU side untouched.
        assert scaled.gpu_max_gbs() == pytest.approx(base.gpu_max_gbs())

    def test_peak_cap_is_architectural(self):
        for chip in ("M1", "M4"):
            cap = max_anchorable_peak_gflops(get_chip(chip), "cpu-accelerate")
            anchor = anchored_knob_value(chip, "gemm.peak_gflops.cpu-accelerate")
            assert anchor < cap
            # Just inside the cap is still feasible (efficiency <= 1.0).
            name = derive_calibrated_chip(
                chip, {"gemm.peak_gflops.cpu-accelerate": cap * (1 - 1e-9)}
            )
            gemm_calibration(get_chip(name), "cpu-accelerate")  # does not raise
            # Past the cap the derived efficiency leaves (0, 1] and raises.
            over = derive_calibrated_chip(
                chip, {"gemm.peak_gflops.cpu-accelerate": cap * 1.05}
            )
            with pytest.raises(CalibrationError, match="efficiency"):
                gemm_calibration(get_chip(over), "cpu-accelerate")
