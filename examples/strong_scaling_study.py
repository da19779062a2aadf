"""Strong-scaling study: NT3 on Summit, original vs optimized loader.

Reproduces the paper's §4-§5 strong-scaling story at paper scale
through the calibrated simulator: total epochs fixed at 384, epochs/GPU
= 384/N, linear LR scaling, and the crossover where data loading
overtakes the "TensorFlow" (training) time — then the improvement the
chunked loader buys at every GPU count, including the broadcast-delay
reduction (Figs 6a, 7b, 11, 12; Tables 2, 5).

Run:  python examples/strong_scaling_study.py [summit|theta]
"""

import sys

from repro.analysis import broadcast_overhead_seconds, compare_runs
from repro.candle.nt3 import NT3_SPEC
from repro.core import strong_scaling_plan
from repro.sim import ScaledRunSimulator
from repro.telemetry.report import format_table

GPU_COUNTS = (1, 6, 12, 24, 48, 96, 192, 384)


def main(machine: str = "summit") -> None:
    sim = ScaledRunSimulator(machine)
    rows = []
    for n in GPU_COUNTS:
        plan = strong_scaling_plan(NT3_SPEC, n)
        orig = sim.run(NT3_SPEC, plan, method="original")
        opt = sim.run(NT3_SPEC, plan, method="chunked")
        comp = compare_runs(orig, opt)
        rows.append(
            {
                "workers": n,
                "epochs/worker": plan.epochs_per_worker,
                "tf_s": round(orig.train_s, 1),
                "load_s": round(orig.load_s, 1),
                "bcast_overhead_s": round(broadcast_overhead_seconds(orig.tracer), 1),
                "orig_total_s": round(orig.total_s, 1),
                "opt_total_s": round(opt.total_s, 1),
                "perf_impr_%": round(comp.performance_improvement_pct, 1),
                "energy_save_%": round(comp.energy_saving_pct, 1),
                "power_%": f"+{comp.power_increase_pct:.0f}",
            }
        )
    print(format_table(rows, title=f"NT3 strong scaling on {sim.machine.name}"))
    crossover = next(
        (r["workers"] for r in rows if r["load_s"] > r["tf_s"]), None
    )
    print(f"\ndata loading dominates the runtime from {crossover} workers on "
          f"(paper: 48 GPUs or more).")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "summit")
