"""Component power envelopes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.soc.power import (
    ComponentPower,
    PowerComponent,
    PowerEnvelope,
    default_envelope_for,
)


class TestComponentPower:
    def test_rejects_negative_idle(self):
        with pytest.raises(ConfigurationError):
            ComponentPower(-0.1, 1.0)

    def test_rejects_max_below_idle(self):
        with pytest.raises(ConfigurationError):
            ComponentPower(2.0, 1.0)

    def test_utilisation_endpoints(self):
        cp = ComponentPower(0.1, 10.0)
        assert cp.at_utilisation(0.0) == 0.1
        assert cp.at_utilisation(1.0) == 10.0

    def test_utilisation_clamps(self):
        cp = ComponentPower(0.1, 10.0)
        assert cp.at_utilisation(-1.0) == 0.1
        assert cp.at_utilisation(2.0) == 10.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_roundtrip_property(self, u):
        cp = ComponentPower(0.5, 12.0)
        assert cp.utilisation_for(cp.at_utilisation(u)) == pytest.approx(u, abs=1e-9)

    def test_degenerate_envelope_utilisation(self):
        cp = ComponentPower(1.0, 1.0)
        assert cp.utilisation_for(1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_property(self, u1, u2):
        cp = ComponentPower(0.2, 15.0)
        lo, hi = min(u1, u2), max(u1, u2)
        assert cp.at_utilisation(lo) <= cp.at_utilisation(hi)


class TestPowerEnvelope:
    def test_requires_cpu_and_gpu(self):
        with pytest.raises(ConfigurationError):
            PowerEnvelope({PowerComponent.CPU: ComponentPower(0.1, 1.0)})

    def test_draw_defaults_absent_components_to_idle(self):
        env = default_envelope_for("M1")
        draws = env.draw({PowerComponent.GPU: 1.0})
        assert draws[PowerComponent.GPU] == env.max_watts(PowerComponent.GPU)
        assert draws[PowerComponent.CPU] == env.idle_watts(PowerComponent.CPU)

    def test_total_idle(self):
        env = default_envelope_for("M2")
        assert env.total_idle_watts() == pytest.approx(
            sum(env.idle_watts(c) for c in env.components)
        )

    def test_unknown_component_errors(self):
        env = PowerEnvelope(
            {
                PowerComponent.CPU: ComponentPower(0.1, 1.0),
                PowerComponent.GPU: ComponentPower(0.1, 1.0),
            }
        )
        with pytest.raises(ConfigurationError):
            env.component(PowerComponent.ANE)


class TestDefaultEnvelopes:
    @pytest.mark.parametrize("chip", ["M1", "M2", "M3", "M4"])
    def test_study_chips_covered(self, chip):
        env = default_envelope_for(chip)
        for comp in (PowerComponent.CPU, PowerComponent.GPU, PowerComponent.ANE):
            assert env.max_watts(comp) > env.idle_watts(comp)

    def test_m4_gpu_envelope_covers_cutlass_draw(self):
        # Figure 3: the M4 GPU-CUTLASS run dissipates ~20 W.
        assert default_envelope_for("M4").max_watts(PowerComponent.GPU) >= 20.0

    def test_unknown_chip_gets_generic_envelope(self):
        env = default_envelope_for("M99-custom")
        assert env.max_watts(PowerComponent.CPU) > 0


class TestSharedEnvelopes:
    """Each built-in envelope is built once and shared by every caller."""

    def test_components_are_read_only(self):
        env = default_envelope_for("M1")
        with pytest.raises(TypeError):
            env.components[PowerComponent.CPU] = ComponentPower(0.0, 1.0)  # type: ignore[index]

    def test_constructor_copies_the_mapping(self):
        components = {
            PowerComponent.CPU: ComponentPower(0.1, 1.0),
            PowerComponent.GPU: ComponentPower(0.1, 1.0),
        }
        env = PowerEnvelope(components)
        components[PowerComponent.ANE] = ComponentPower(0.1, 1.0)
        assert PowerComponent.ANE not in env.components

    def test_repeat_calls_share_one_envelope(self):
        assert default_envelope_for("M3") is default_envelope_for("m3")
        assert default_envelope_for("X1") is default_envelope_for("X2")

    def test_derived_chip_gets_its_base_envelope_object(self):
        from repro.calibration.overrides import derive_calibrated_chip

        name = derive_calibrated_chip("M4", {"stream.gbs.gpu": 101.5})
        assert default_envelope_for(name) is default_envelope_for("M4")
