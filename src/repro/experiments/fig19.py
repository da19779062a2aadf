"""Figure 19: weak-scaling broadcast overhead on 768 GPUs.

"The broadcast overhead decreases from 37.65 s to 5.3 s on 768 GPUs
(128 nodes), which is an 85.92% improvement." Same mechanism as Fig 12,
at the weak-scaling configuration (8 epochs/GPU).
"""

from __future__ import annotations

from repro.analysis.timeline_analysis import broadcast_overhead_seconds
from repro.candle.nt3 import NT3_SPEC
from repro.core.scaling import weak_scaling_plan
from repro.experiments.base import ExperimentResult
from repro.sim.report import improvement_percent
from repro.sim.runner import ScaledRunSimulator


def run(
    fast: bool = True,
    nworkers: int = 768,
    collective=None,
) -> ExperimentResult:
    sim = ScaledRunSimulator("summit", collective=collective)
    plan = weak_scaling_plan(NT3_SPEC, nworkers)
    rows = []
    overheads = {}
    comm_bands = 0
    for method in ("original", "chunked"):
        report = sim.run(NT3_SPEC, plan, method=method)
        overhead = broadcast_overhead_seconds(report.tracer)
        overheads[method] = overhead
        # "the timeline shows 8 pieces of the communication for 8 epochs"
        rank0 = min(report.profiles)
        comm_bands = sum(
            1
            for s in report.tracer.spans_named("nccl_allreduce")
            if s.rank == rank0
        )
        rows.append(
            {
                "method": method,
                "epochs_per_gpu": plan.epochs_per_worker,
                "negotiate_wait_s": round(report.broadcast_wait_s, 2),
                "broadcast_overhead_s": round(overhead, 2),
                "allreduce_per_epoch_s": round(
                    report.train_comm_s / plan.epochs_per_worker, 2
                ),
                "comm_bands": comm_bands,
            }
        )
    impr = improvement_percent(overheads["original"], overheads["chunked"])
    return ExperimentResult(
        experiment_id="fig19",
        title=f"NT3 weak-scaling broadcast overhead on {nworkers} GPUs (paper Fig 19)",
        panels={"": rows},
        paper_claims={
            "original overhead s": 37.65,
            "optimized overhead s": 5.3,
            "overhead improvement %": 85.92,
            "communication pieces == epochs (8)": 8,
        },
        measured={
            "original overhead s": round(overheads["original"], 2),
            "optimized overhead s": round(overheads["chunked"], 2),
            "overhead improvement %": round(impr, 2),
            "communication pieces == epochs (8)": comm_bands,
        },
    )
