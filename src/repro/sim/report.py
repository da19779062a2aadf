"""Simulation run reports and derived paper metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.power import PhasePowerProfile
from repro.core.scaling import ScalingPlan
from repro.telemetry import Tracer

__all__ = ["SimRunReport", "improvement_percent"]


def improvement_percent(original: float, improved: float) -> float:
    """The paper's improvement metric: (orig - new) / orig * 100.

    Positive = better (less time / less energy). Also used for power
    increases, where the sign flips (reported as increase %).
    """
    if original <= 0:
        raise ValueError(f"original value must be positive, got {original}")
    return (original - improved) / original * 100.0


@dataclass
class SimRunReport:
    """Everything one simulated run produces.

    Times are seconds; the phase fields are gated-by-slowest-rank
    durations. ``train_s`` is the paper's "TensorFlow" series (model
    training + cross-validation, compute and allreduce together);
    ``total_s`` is the paper's "Total Runtime".
    """

    machine: str
    benchmark: str
    plan: ScalingPlan
    method: str

    load_s: float
    broadcast_wait_s: float
    broadcast_s: float
    train_compute_s: float
    train_comm_s: float
    eval_s: float

    avg_power_w: float
    energy_per_worker_j: float

    #: modeled share of each step's allreduce hidden behind backward
    #: (0.0 for the serialized schedule; ``train_comm_s`` is already the
    #: exposed remainder, this records how much never hit the critical
    #: path)
    overlap_fraction: float = 0.0

    #: the tracked ranks' phase spans in sim time (None unless kept)
    tracer: Optional[Tracer] = None
    profiles: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in (
            "load_s",
            "broadcast_wait_s",
            "broadcast_s",
            "train_compute_s",
            "train_comm_s",
            "eval_s",
        ):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError(
                f"overlap_fraction must be in [0, 1], got {self.overlap_fraction}"
            )

    # -- paper series -------------------------------------------------------
    @property
    def train_s(self) -> float:
        """The "TensorFlow" time: training + cross-validation phase."""
        return self.train_compute_s + self.train_comm_s

    @property
    def broadcast_overhead_s(self) -> float:
        """What the paper calls broadcast overhead (Figs 7b/12/19):
        rendezvous wait for the slowest loader + the broadcast itself."""
        return self.broadcast_wait_s + self.broadcast_s

    @property
    def total_s(self) -> float:
        """Total runtime (the paper's headline per-run number)."""
        return (
            self.load_s
            + self.broadcast_wait_s
            + self.broadcast_s
            + self.train_s
            + self.eval_s
        )

    @property
    def time_per_epoch_s(self) -> float:
        """Per-epoch training time including allreduce (Table 2/6)."""
        return self.train_s / self.plan.epochs_per_worker

    @property
    def total_energy_j(self) -> float:
        return self.energy_per_worker_j * self.plan.nworkers

    def as_row(self) -> dict:
        """Flat dict for table printing."""
        return {
            "machine": self.machine,
            "benchmark": self.benchmark,
            "workers": self.plan.nworkers,
            "method": self.method,
            "load_s": round(self.load_s, 2),
            "bcast_overhead_s": round(self.broadcast_overhead_s, 2),
            "train_s": round(self.train_s, 2),
            "overlap_frac": round(self.overlap_fraction, 3),
            "total_s": round(self.total_s, 2),
            "time_per_epoch_s": round(self.time_per_epoch_s, 2),
            "avg_power_w": round(self.avg_power_w, 1),
            "energy_per_worker_j": round(self.energy_per_worker_j, 0),
        }
