"""Weak-scaling study: NT3 at 8 epochs/GPU on 6-3,072 Summit GPUs.

Reproduces §6: the time-per-epoch growth from the Horovod allreduce
overhead (Table 6's ">3x on 3,072 GPUs"), and the optimized loader's
improvement band shrinking as communication dilutes the I/O win
(Fig 18). Accuracy stays ~1.0 at 8 epochs/GPU, verified by real
training at reduced scale.

Run:  python examples/weak_scaling_study.py
"""

from repro.analysis import compare_runs
from repro.candle import get_benchmark
from repro.candle.nt3 import NT3_SPEC
from repro.core import run_parallel_benchmark, weak_scaling_plan
from repro.sim import ScaledRunSimulator
from repro.telemetry.report import format_table

GPU_COUNTS = (6, 48, 384, 768, 1536, 3072)


def simulated_sweep() -> None:
    sim = ScaledRunSimulator("summit")
    rows = []
    for n in GPU_COUNTS:
        plan = weak_scaling_plan(NT3_SPEC, n)  # 8 epochs/GPU (§6)
        orig = sim.run(NT3_SPEC, plan, method="original")
        opt = sim.run(NT3_SPEC, plan, method="chunked")
        comp = compare_runs(orig, opt)
        rows.append(
            {
                "gpus": n,
                "nodes": sim.machine.nodes_for(n),
                "time_per_epoch_s": round(orig.time_per_epoch_s, 1),
                "allreduce_s_per_epoch": round(
                    orig.train_comm_s / plan.epochs_per_worker, 1
                ),
                "perf_impr_%": round(comp.performance_improvement_pct, 1),
                "energy_save_%": round(comp.energy_saving_pct, 1),
            }
        )
    print(format_table(rows, title="NT3 weak scaling on Summit (8 epochs/GPU)"))
    ratio = rows[-1]["time_per_epoch_s"] / 10.3
    print(f"\ntime/epoch at 3,072 GPUs is {ratio:.1f}x the sequential 10.3 s "
          "(paper: more than 3x, §7).")


def accuracy_check() -> None:
    bench = get_benchmark("nt3", scale=0.008, sample_scale=0.5)
    plan = weak_scaling_plan(bench.spec, 4, epochs_per_worker=8)
    res = run_parallel_benchmark(bench, plan, seed=11)
    print(f"\nreal training at 8 epochs/worker: accuracy = "
          f"{res.final_train_metric['accuracy']:.3f} (paper: 1.0)")


if __name__ == "__main__":
    simulated_sweep()
    accuracy_check()
