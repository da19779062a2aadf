"""Compute model and the phase simulator."""

import numpy as np
import pytest

from repro.candle.nt3 import NT3_SPEC
from repro.candle.p1b1 import P1B1_SPEC
from repro.cluster.machine import SUMMIT, THETA
from repro.sim.computemodel import ComputeModel
from repro.sim.engine import PhaseSimulator, span_category


class TestComputeModel:
    def test_nt3_epoch_anchor(self):
        cm = ComputeModel(SUMMIT)
        assert cm.epoch_compute_seconds(NT3_SPEC, 20) == pytest.approx(10.3, rel=0.05)

    def test_theta_epoch_anchor(self):
        cm = ComputeModel(THETA)
        assert cm.epoch_compute_seconds(NT3_SPEC, 20) == pytest.approx(695, rel=0.1)

    def test_larger_batch_smaller_epoch(self):
        """Table 2: batch 40 -> fewer overhead payments per epoch."""
        cm = ComputeModel(SUMMIT)
        assert cm.epoch_compute_seconds(NT3_SPEC, 40) < cm.epoch_compute_seconds(
            NT3_SPEC, 20
        )

    def test_larger_batch_lower_intensity(self):
        """Table 2: batch 40 draws less power."""
        cm = ComputeModel(SUMMIT)
        assert cm.train_intensity(NT3_SPEC, 40) < cm.train_intensity(NT3_SPEC, 20)

    def test_duty_cycle_bounded(self):
        cm = ComputeModel(SUMMIT)
        for batch in (20, 100, 1000):
            assert 0 < cm.math_duty_cycle(NT3_SPEC, batch) < 1

    def test_bigger_model_costs_more(self):
        cm = ComputeModel(SUMMIT)
        assert cm.per_sample_seconds(P1B1_SPEC) > cm.per_sample_seconds(NT3_SPEC)

    def test_eval_much_cheaper_than_training(self):
        cm = ComputeModel(SUMMIT)
        assert cm.eval_seconds(NT3_SPEC) < cm.epoch_compute_seconds(NT3_SPEC, 20)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            ComputeModel(SUMMIT).step_seconds(NT3_SPEC, 0)


class TestPhaseSimulator:
    def test_advance_accumulates_clock_and_energy(self):
        sim = PhaseSimulator(4)
        sim.advance(np.array([1.0, 2.0, 3.0, 4.0]), "load", 50.0)
        assert sim.elapsed_s == 4.0
        assert sim.energy_j.tolist() == [50, 100, 150, 200]
        assert sim.phase_seconds["load"] == 4.0

    def test_synchronize_charges_waits_at_idle(self):
        sim = PhaseSimulator(3)
        sim.advance(np.array([1.0, 5.0, 3.0]), "load", 100.0)
        waits = sim.synchronize("negotiate", idle_power_w=10.0)
        assert waits.tolist() == [4.0, 0.0, 2.0]
        assert np.all(sim.clock == 5.0)
        assert sim.energy_j[0] == 100 + 40

    def test_lockstep_repeats(self):
        sim = PhaseSimulator(2)
        sim.lockstep(0.5, "train", 200.0, repeats=10)
        assert sim.elapsed_s == 5.0
        assert sim.energy_j[0] == 1000.0

    def test_tracked_profiles_and_timeline(self):
        sim = PhaseSimulator(10, track_ranks=[0, 9])
        sim.advance(np.linspace(1, 2, 10), "data_loading", 42.0)
        sim.synchronize("negotiate_broadcast", 36.0)
        assert set(sim.profiles) == {0, 9}
        assert sim.profiles[0].phases[0][3] == 42.0
        names = {s.name for s in sim.tracer.spans}
        assert "data_loading" in names
        assert "negotiate_broadcast" in names
        assert {s.rank for s in sim.tracer.spans} == {0, 9}

    def test_span_categories_follow_event_family(self):
        from repro.hvd.ops import ALLREDUCE_EVENTS, BROADCAST_EVENTS

        for name in BROADCAST_EVENTS:
            assert span_category(name) == "broadcast"
        for name in ALLREDUCE_EVENTS:
            assert span_category(name) == "allreduce"
        assert span_category("data_loading") == "misc"
        sim = PhaseSimulator(2, track_ranks=[0])
        sim.advance(1.0, "data_loading", 10.0)
        sim.advance(1.0, "mpi_broadcast", 10.0)
        sim.lockstep(0.5, "nccl_allreduce", 10.0)
        assert [(s.name, s.category) for s in sim.tracer.spans] == [
            ("data_loading", "misc"),
            ("mpi_broadcast", "broadcast"),
            ("nccl_allreduce", "allreduce"),
        ]

    def test_records_into_the_callers_tracer_in_sim_time(self):
        from repro.telemetry import Tracer

        tracer = Tracer(origin_s=0.0)
        sim = PhaseSimulator(2, track_ranks=[1], tracer=tracer)
        sim.advance(np.array([1.0, 2.0]), "data_loading", 10.0)
        sim.synchronize("negotiate_broadcast", 5.0)
        assert sim.tracer is tracer
        assert [(s.name, s.rank, s.start_s, s.duration_s) for s in tracer.spans] == [
            ("data_loading", 1, 0.0, 2.0),
        ]

    def test_mean_energy(self):
        sim = PhaseSimulator(2)
        sim.advance(np.array([1.0, 3.0]), "x", 10.0)
        assert sim.mean_energy_j() == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSimulator(0)
        with pytest.raises(ValueError):
            PhaseSimulator(2, track_ranks=[5])
        sim = PhaseSimulator(2)
        with pytest.raises(ValueError):
            sim.advance(-1.0, "x", 10.0)
        with pytest.raises(ValueError):
            sim.advance(np.ones(3), "x", 10.0)  # wrong vector length
