"""The vectorized meter path: edge lookup against the per-tick scan."""

from repro.cluster import PhasePowerProfile, PowerMeter


def _reference_power_at(profile, t):
    """The original linear scan, kept verbatim as the oracle."""
    for _, t0, t1, w in profile._phases:
        if t0 <= t < t1:
            return w
    if profile._phases and t == profile._phases[-1][2]:
        return profile._phases[-1][3]
    return 0.0


class TestVectorizedPowerAt:
    def _gapped_profile(self):
        p = PhasePowerProfile()
        p.add_phase("load", 0.0, 10.0, 60.0)
        p.add_phase("train", 15.0, 40.0, 250.0)  # 5 s gap before
        p.add_phase("allreduce", 40.0, 45.0, 120.0)
        return p

    def test_matches_scan_on_edges_gaps_and_outside(self):
        p = self._gapped_profile()
        times = [-1.0, 0.0, 5.0, 9.999, 10.0, 12.5, 15.0, 39.999, 40.0,
                 44.0, 45.0, 45.001, 1e9]
        vec = p.power_at_many(times)
        for t, got in zip(times, vec):
            assert got == _reference_power_at(p, t), t

    def test_scalar_wrapper_agrees(self):
        p = self._gapped_profile()
        for t in (-1.0, 2.0, 12.0, 40.0, 45.0, 50.0):
            assert p.power_at(t) == _reference_power_at(p, t)

    def test_empty_profile(self):
        p = PhasePowerProfile()
        assert p.power_at_many([0.0, 1.0]).tolist() == [0.0, 0.0]
        assert p.power_at(3.0) == 0.0

    def test_meter_sample_identical_to_scan(self):
        p = self._gapped_profile()
        samples = PowerMeter(2.0).sample(p)
        assert len(samples) == 91
        for s in samples:
            assert s.power_w == _reference_power_at(p, s.time_s)

    def test_cache_invalidated_by_new_phase(self):
        p = PhasePowerProfile()
        p.add_phase("a", 0.0, 10.0, 50.0)
        assert p.power_at(5.0) == 50.0  # builds the edge cache
        p.add_phase("b", 10.0, 20.0, 70.0)
        assert p.power_at(15.0) == 70.0
        assert p.power_at(20.0) == 70.0
