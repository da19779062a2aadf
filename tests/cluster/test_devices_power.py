"""Device power models, power profiles, meters, energy integration."""

import pytest

from repro.cluster import (
    PhasePowerProfile,
    PowerMeter,
    trapezoid_energy,
)
from repro.cluster.devices import KNL7230, POWER9, V100, DevicePowerModel


class TestDevicePowerModel:
    def test_compute_scales_with_intensity(self):
        pm = DevicePowerModel(idle_w=40, io_w=50, compute_base_w=90, compute_span_w=210)
        assert pm.compute_w(0.0) == 90
        assert pm.compute_w(1.0) == 300
        assert pm.compute_w(0.5) == 195

    def test_intensity_clamped(self):
        pm = V100.power
        assert pm.compute_w(2.0) == pm.compute_w(1.0)
        assert pm.compute_w(-1.0) == pm.compute_w(0.0)

    def test_comm_power_between_idle_and_peak(self):
        pm = V100.power
        assert pm.idle_w < pm.communicate_w() < pm.compute_w(1.0)

    def test_comm_defaults_to_io(self):
        pm = DevicePowerModel(10, 20, 30, 40)
        assert pm.communicate_w() == 20

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            DevicePowerModel(-1, 0, 0, 0)

    def test_presets_within_tdp(self):
        assert V100.power.compute_w(1.0) <= V100.tdp_w
        assert KNL7230.power.compute_w(1.0) <= 300  # node-level allowance
        assert POWER9.power.compute_w(1.0) <= POWER9.tdp_w


class TestPhasePowerProfile:
    def test_exact_energy_and_average(self):
        p = PhasePowerProfile()
        p.add_phase("load", 0, 100, 50)
        p.add_phase("train", 100, 150, 250)
        assert p.exact_energy_j() == 100 * 50 + 50 * 250
        assert p.exact_average_power_w() == pytest.approx(17500 / 150)
        assert p.duration_s() == 150

    def test_phase_energy_by_name(self):
        p = PhasePowerProfile()
        p.add_phase("a", 0, 10, 100)
        p.add_phase("b", 10, 20, 50)
        p.add_phase("a", 20, 30, 100)
        assert p.phase_energy_j() == {"a": 2000.0, "b": 500.0}

    def test_power_at(self):
        p = PhasePowerProfile()
        p.add_phase("x", 0, 10, 75)
        assert p.power_at(5) == 75
        assert p.power_at(10) == 75  # closing edge
        assert p.power_at(11) == 0.0

    def test_overlapping_phase_rejected(self):
        p = PhasePowerProfile()
        p.add_phase("a", 0, 10, 1)
        with pytest.raises(ValueError, match="before previous"):
            p.add_phase("b", 5, 15, 1)

    def test_backwards_phase_rejected(self):
        with pytest.raises(ValueError, match="ends before"):
            PhasePowerProfile().add_phase("a", 10, 5, 1)

    def test_empty_profile(self):
        p = PhasePowerProfile()
        assert p.exact_energy_j() == 0.0
        assert p.exact_average_power_w() == 0.0


class TestMeterAndIntegration:
    def test_sample_count_matches_rate(self):
        p = PhasePowerProfile()
        p.add_phase("x", 0, 100, 60)
        assert len(PowerMeter(1.0).sample(p)) == 101
        assert len(PowerMeter(2.0).sample(p)) == 201

    def test_sampled_energy_close_to_exact(self):
        p = PhasePowerProfile()
        p.add_phase("load", 0, 97.3, 52)
        p.add_phase("train", 97.3, 150.9, 231)
        samples = PowerMeter(2.0).sample(p)
        assert trapezoid_energy(samples) == pytest.approx(p.exact_energy_j(), rel=0.02)

    def test_trapezoid_requires_ordered_samples(self):
        from repro.cluster.power import PowerSample

        with pytest.raises(ValueError):
            trapezoid_energy([PowerSample(1, 1), PowerSample(0, 1)])

    def test_trapezoid_degenerate(self):
        assert trapezoid_energy([]) == 0.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PowerMeter(0)


class TestTrapezoidResolver:
    """The integrator must work on NumPy 1.x (trapz) and 2.x (trapezoid)."""

    def test_resolves_on_this_numpy(self):
        from repro.cluster.power import _resolve_trapezoid

        fn = _resolve_trapezoid()
        assert fn([0.0, 1.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_prefers_trapezoid_when_present(self):
        from types import SimpleNamespace

        from repro.cluster.power import _resolve_trapezoid

        new_style = SimpleNamespace(trapezoid="new", trapz="old")
        assert _resolve_trapezoid(new_style) == "new"

    def test_falls_back_to_trapz(self):
        from types import SimpleNamespace

        from repro.cluster.power import _resolve_trapezoid

        old_style = SimpleNamespace(trapz="old")
        assert _resolve_trapezoid(old_style) == "old"


class TestEnergyBetween:
    def _profile(self):
        p = PhasePowerProfile()
        p.add_phase("load", 0.0, 100.0, 60.0)
        p.add_phase("train", 100.0, 400.0, 250.0)
        return p

    def test_full_window_matches_exact(self):
        p = self._profile()
        assert p.energy_between(0.0, 400.0) == pytest.approx(p.exact_energy_j())

    def test_window_straddling_boundary(self):
        p = self._profile()
        assert p.energy_between(90.0, 110.0) == pytest.approx(
            10 * 60.0 + 10 * 250.0
        )

    def test_window_outside_profile_is_zero(self):
        p = self._profile()
        assert p.energy_between(500.0, 600.0) == 0.0

    def test_backwards_window_rejected(self):
        with pytest.raises(ValueError):
            self._profile().energy_between(10.0, 5.0)
