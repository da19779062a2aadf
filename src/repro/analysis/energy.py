"""Original-vs-optimized improvement accounting (§5-6).

Every improvement figure in the paper compares a pair of runs; this
module packages the arithmetic: performance improvement %, energy
saving %, and average-power change % — computed exactly as the paper
defines them ((orig - new)/orig x 100).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.report import SimRunReport, improvement_percent

__all__ = [
    "EnergyComparison",
    "compare_runs",
]


@dataclass(frozen=True)
class EnergyComparison:
    """One original-vs-optimized comparison point."""

    nworkers: int
    original_total_s: float
    optimized_total_s: float
    original_energy_j: float
    optimized_energy_j: float
    original_power_w: float
    optimized_power_w: float

    @property
    def performance_improvement_pct(self) -> float:
        return improvement_percent(self.original_total_s, self.optimized_total_s)

    @property
    def energy_saving_pct(self) -> float:
        return improvement_percent(self.original_energy_j, self.optimized_energy_j)

    @property
    def power_increase_pct(self) -> float:
        """Positive when the optimized run draws more average power
        (Table 5a: less low-power loading time ⇒ higher average).

        Guarded like :func:`~repro.sim.report.improvement_percent`: a
        zero-power original (degenerate zero-duration or all-idle run)
        is a data error, not an infinite improvement.
        """
        if self.original_power_w <= 0:
            raise ValueError(
                "original average power must be positive, "
                f"got {self.original_power_w}"
            )
        return (self.optimized_power_w / self.original_power_w - 1.0) * 100.0

    def as_row(self) -> dict:
        return {
            "workers": self.nworkers,
            "orig_total_s": round(self.original_total_s, 1),
            "opt_total_s": round(self.optimized_total_s, 1),
            "perf_improvement_pct": round(self.performance_improvement_pct, 2),
            "energy_saving_pct": round(self.energy_saving_pct, 2),
            "power_increase_pct": round(self.power_increase_pct, 2),
        }


def compare_runs(original: SimRunReport, optimized: SimRunReport) -> EnergyComparison:
    """Build a comparison from two simulator reports of the same plan."""
    if original.plan.nworkers != optimized.plan.nworkers:
        raise ValueError(
            "runs disagree on worker count: "
            f"{original.plan.nworkers} vs {optimized.plan.nworkers}"
        )
    if original.benchmark != optimized.benchmark:
        raise ValueError(
            f"runs disagree on benchmark: {original.benchmark} vs {optimized.benchmark}"
        )
    return EnergyComparison(
        nworkers=original.plan.nworkers,
        original_total_s=original.total_s,
        optimized_total_s=optimized.total_s,
        original_energy_j=original.energy_per_worker_j,
        optimized_energy_j=optimized.energy_per_worker_j,
        original_power_w=original.avg_power_w,
        optimized_power_w=optimized.avg_power_w,
    )
