"""Figure 7: NT3 on 384 GPUs — power over time (a) and Horovod timeline (b).

(a) GPU power per rank sampled at nvidia-smi's 1 Hz over the whole run:
    a long low-power data-loading plateau, an idle negotiate dip, then
    the high-power training band with per-epoch allreduce dips.
(b) The communication timeline: negotiate_broadcast (~43 s — the
    slow-loading ranks gate everyone), mpi_broadcast, then periodic
    negotiate_allreduce / nccl_allreduce during training.
"""

from __future__ import annotations

from repro.analysis.timeline_analysis import broadcast_overhead_seconds, communication_summary
from repro.candle.nt3 import NT3_SPEC
from repro.cluster.machine import SUMMIT
from repro.cluster.power import PowerMeter
from repro.core.scaling import strong_scaling_plan
from repro.experiments.base import ExperimentResult
from repro.sim.runner import ScaledRunSimulator


def run(
    fast: bool = True,
    nworkers: int = 384,
    method: str = "original",
    collective=None,
) -> ExperimentResult:
    sim = ScaledRunSimulator("summit", collective=collective)
    plan = strong_scaling_plan(NT3_SPEC, nworkers)
    report = sim.run(NT3_SPEC, plan, method=method)

    # (a) nvidia-smi-rate samples for the slowest tracked rank
    meter = PowerMeter(SUMMIT.power_sample_hz)
    tracked = max(report.profiles)
    samples = meter.sample(report.profiles[tracked])
    stride = max(1, len(samples) // 40)
    power_rows = [
        {"t_s": round(s.time_s, 1), "power_w": round(s.power_w, 1)}
        for s in samples[::stride]
    ]

    # (b) communication events
    comm = communication_summary(report.tracer)
    names = sorted({k[:-2] for k in comm})
    timeline_rows = [
        {
            "event": name,
            "total_s": round(comm.get(f"{name}_s", 0.0), 2),
            "count": int(comm.get(f"{name}_n", 0)),
        }
        for name in names
    ]
    overhead = broadcast_overhead_seconds(report.tracer)
    return ExperimentResult(
        experiment_id="fig7",
        title=f"NT3 on {nworkers} GPUs: power trace and timeline (paper Fig 7)",
        panels={"a: power samples (slowest rank)": power_rows, "b: timeline summary": timeline_rows},
        paper_claims={
            "data loading s (approx)": 153.0,
            "broadcast overhead s": 43.72,
        },
        measured={
            "data loading s (approx)": round(report.load_s, 1),
            "broadcast overhead s": round(overhead, 2),
        },
        notes="Power is low during loading/broadcast and high during training, as Fig 7a shows.",
    )
