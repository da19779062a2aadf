"""Calibration anchors: the paper scalars the machine models are fit to.

The simulator's free constants (parse rates, contention penalties, step
overheads, compute efficiencies, power states) were fitted *once*
against the scalars below, which the paper states explicitly. All other
outputs — every scaling curve, crossover, and improvement percentage in
EXPERIMENTS.md — are derived, not fitted.

``calibration_report()`` re-derives each anchor from the current models
so drift is visible (the test suite asserts every anchor within
tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.candle.nt3 import NT3_SPEC
from repro.candle.p1b1 import P1B1_SPEC
from repro.candle.p1b2 import P1B2_SPEC
from repro.candle.p1b3 import P1B3_SPEC
from repro.cluster.machine import SUMMIT, THETA, MachineSpec
from repro.core.scaling import strong_scaling_plan
from repro.sim.computemodel import ComputeModel
from repro.sim.iomodel import IoModel, benchmark_files
from repro.sim.runner import ScaledRunSimulator

__all__ = ["Anchor", "Calibration", "DEFAULT_CALIBRATION", "calibration_report"]


@dataclass(frozen=True)
class Anchor:
    """One published scalar and how the model re-derives it."""

    name: str
    paper_value: float
    derive: Callable[[], float]
    rel_tolerance: float = 0.25

    def model_value(self) -> float:
        return self.derive()

    def within_tolerance(self) -> bool:
        m = self.model_value()
        return abs(m - self.paper_value) <= self.rel_tolerance * self.paper_value


def _load_anchor(machine: MachineSpec, spec, which: str, method: str) -> Callable[[], float]:
    def derive() -> float:
        io = IoModel(machine)
        train, test = benchmark_files(spec)
        return io.load_seconds(train if which == "train" else test, method)

    return derive


def _epoch_anchor(machine: MachineSpec, spec, batch: int) -> Callable[[], float]:
    def derive() -> float:
        return ComputeModel(machine).epoch_compute_seconds(spec, batch)

    return derive


def _epoch_with_comm_anchor(machine: MachineSpec, spec, batch: int, nworkers: int) -> Callable[[], float]:
    def derive() -> float:
        sim = ScaledRunSimulator(machine)
        compute = sim.compute.epoch_compute_seconds(spec, batch)
        comm = sim.effective_step_comm_seconds(
            spec, nworkers, batch
        ) * spec.steps_per_epoch_at(batch)
        return compute + comm

    return derive


def _bcast_wait_anchor(machine: MachineSpec, spec, nworkers: int, method: str) -> Callable[[], float]:
    def derive() -> float:
        io = IoModel(machine)
        load = io.benchmark_load_seconds(spec, method, nclients=nworkers)
        return load * machine.io_skew.expected_spread(nworkers)

    return derive


@dataclass
class Calibration:
    """A named set of anchors."""

    anchors: List[Anchor]

    def report(self) -> list[dict]:
        rows = []
        for a in self.anchors:
            model = a.model_value()
            rows.append(
                {
                    "anchor": a.name,
                    "paper": a.paper_value,
                    "model": round(model, 2),
                    "rel_err_pct": round(100 * (model - a.paper_value) / a.paper_value, 1),
                    "ok": a.within_tolerance(),
                }
            )
        return rows


def _build_default() -> Calibration:
    anchors = [
        # --- Table 3: Summit single-client data loading ------------------
        Anchor("T3 NT3 train original", 81.72, _load_anchor(SUMMIT, NT3_SPEC, "train", "original")),
        Anchor("T3 NT3 train chunked", 14.30, _load_anchor(SUMMIT, NT3_SPEC, "train", "chunked")),
        Anchor("T3 NT3 test original", 22.25, _load_anchor(SUMMIT, NT3_SPEC, "test", "original")),
        Anchor("T3 NT3 test chunked", 5.25, _load_anchor(SUMMIT, NT3_SPEC, "test", "chunked")),
        Anchor("T3 P1B1 train original", 235.68, _load_anchor(SUMMIT, P1B1_SPEC, "train", "original"), 0.35),
        Anchor("T3 P1B1 train chunked", 30.99, _load_anchor(SUMMIT, P1B1_SPEC, "train", "chunked"), 0.35),
        Anchor("T3 P1B2 train original", 40.98, _load_anchor(SUMMIT, P1B2_SPEC, "train", "original"), 0.35),
        Anchor("T3 P1B2 train chunked", 11.03, _load_anchor(SUMMIT, P1B2_SPEC, "train", "chunked"), 0.35),
        Anchor("T3 P1B3 train original", 5.41, _load_anchor(SUMMIT, P1B3_SPEC, "train", "original"), 0.5),
        Anchor("T3 P1B3 train chunked", 5.34, _load_anchor(SUMMIT, P1B3_SPEC, "train", "chunked"), 0.5),
        # --- Table 4: Theta single-client data loading ---------------------
        Anchor("T4 NT3 train original", 52.91, _load_anchor(THETA, NT3_SPEC, "train", "original")),
        Anchor("T4 NT3 train chunked", 13.84, _load_anchor(THETA, NT3_SPEC, "train", "chunked")),
        Anchor("T4 P1B1 train original", 139.71, _load_anchor(THETA, P1B1_SPEC, "train", "original"), 0.35),
        Anchor("T4 P1B2 train original", 25.07, _load_anchor(THETA, P1B2_SPEC, "train", "original"), 0.35),
        Anchor("T4 P1B3 train original", 4.74, _load_anchor(THETA, P1B3_SPEC, "train", "original"), 0.5),
        # --- §4.2.1 / Table 2: NT3 epoch times ------------------------------
        Anchor("NT3 Summit s/epoch (1 GPU, b20)", 10.30, _epoch_anchor(SUMMIT, NT3_SPEC, 20)),
        Anchor(
            "NT3 Summit s/epoch (384 GPUs, b20)",
            22.0,
            _epoch_with_comm_anchor(SUMMIT, NT3_SPEC, 20, 384),
            0.30,
        ),
        Anchor("NT3 Theta s/epoch (24 nodes)", 695.0, _epoch_anchor(THETA, NT3_SPEC, 20), 0.30),
        # --- §4.2.1 / Fig 12: broadcast overhead on 384 GPUs ------------------
        Anchor(
            "NT3 bcast wait 384 GPUs original",
            43.72,
            _bcast_wait_anchor(SUMMIT, NT3_SPEC, 384, "original"),
            0.40,
        ),
        Anchor(
            "NT3 bcast wait 384 GPUs optimized",
            4.65,
            _bcast_wait_anchor(SUMMIT, NT3_SPEC, 384, "chunked"),
            0.80,
        ),
    ]
    return Calibration(anchors)


DEFAULT_CALIBRATION = _build_default()


def calibration_report() -> list[dict]:
    """Model-vs-paper rows for every anchor (used by tests and docs)."""
    return DEFAULT_CALIBRATION.report()
