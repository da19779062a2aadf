"""Figure 12: broadcast overhead, original vs optimized (384 GPUs).

"The optimized method results in a significant decrease in the
broadcast overhead, from 43.72 s to 4.65 s, an improvement of 89.36%.
This indicates that the slow data loading delays the data movement."

The mechanism is skew: negotiate_broadcast waits for the slowest
loader, so broadcast overhead scales with (load time x per-rank
spread); shrinking the load shrinks the skew proportionally.
"""

from __future__ import annotations

from repro.analysis.timeline_analysis import broadcast_overhead_seconds
from repro.candle.nt3 import NT3_SPEC
from repro.core.scaling import strong_scaling_plan
from repro.experiments.base import ExperimentResult
from repro.sim.report import improvement_percent
from repro.sim.runner import ScaledRunSimulator


def run(
    fast: bool = True,
    nworkers: int = 384,
    collective=None,
) -> ExperimentResult:
    sim = ScaledRunSimulator("summit", collective=collective)
    plan = strong_scaling_plan(NT3_SPEC, nworkers)
    rows = []
    overheads = {}
    for method in ("original", "chunked"):
        report = sim.run(NT3_SPEC, plan, method=method)
        overhead = broadcast_overhead_seconds(report.tracer)
        overheads[method] = overhead
        rows.append(
            {
                "method": method,
                "load_s": round(report.load_s, 1),
                "negotiate_wait_s": round(report.broadcast_wait_s, 2),
                "mpi_broadcast_s": round(report.broadcast_s, 2),
                "broadcast_overhead_s": round(overhead, 2),
            }
        )
    impr = improvement_percent(overheads["original"], overheads["chunked"])
    return ExperimentResult(
        experiment_id="fig12",
        title=f"NT3 broadcast overhead on {nworkers} GPUs (paper Figs 7b & 12)",
        panels={"": rows},
        paper_claims={
            "original overhead s": 43.72,
            "optimized overhead s": 4.65,
            "overhead improvement %": 89.36,
        },
        measured={
            "original overhead s": round(overheads["original"], 2),
            "optimized overhead s": round(overheads["chunked"], 2),
            "overhead improvement %": round(impr, 2),
        },
    )
