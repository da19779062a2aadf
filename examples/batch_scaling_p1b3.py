"""P1B3 batch-size scaling strategies (paper §4.2.4 / Fig 10).

P1B3 has 900,100 training samples, so its batch size can grow with the
worker count. Three strategies — linear, square-root, cubic-root — are
compared on runtime (simulated at paper scale, where linear scaling
OOMs at 192/384 GPUs) and on accuracy (real training at reduced scale,
where the gentler cubic-root scaling preserves quality best).

Run:  python examples/batch_scaling_p1b3.py
"""

from repro.candle import get_benchmark
from repro.candle.p1b3 import P1B3_SPEC
from repro.core import run_parallel_benchmark, scale_batch_size, strong_scaling_plan
from repro.core.batch_scaling import BatchMemoryError, check_batch_fits
from repro.core.scaling import ScalingPlan
from repro.experiments.fig10 import P1B3_ACTIVATION_MULTIPLIER
from repro.sim import ScaledRunSimulator
from repro.telemetry.report import format_table

STRATEGIES = ("linear", "sqrt", "cubic")
GPU_COUNTS = (6, 24, 48, 96, 192, 384)


def simulated_runtimes() -> None:
    sim = ScaledRunSimulator("summit")
    rows = []
    for n in GPU_COUNTS:
        row = {"gpus": n}
        for strategy in STRATEGIES:
            batch = scale_batch_size(P1B3_SPEC.batch_size, n, strategy)
            try:
                check_batch_fits(
                    batch, P1B3_SPEC.elements_per_sample,
                    P1B3_ACTIVATION_MULTIPLIER, device_mem_gb=16.0,
                )
            except BatchMemoryError:
                row[f"{strategy} (b={batch})"] = "OOM"
                continue
            plan = strong_scaling_plan(P1B3_SPEC, n, batch_strategy=strategy)
            report = sim.run(P1B3_SPEC, plan, method="original", keep_profiles=False)
            row[f"{strategy} (b={batch})"] = round(report.total_s, 1)
        rows.append(row)
    print(format_table(rows, title="P1B3 total seconds by batch strategy (Summit)"))


def real_accuracy() -> None:
    print("\nreal training (reduced scale), MAE by strategy at 48 workers:")
    bench = get_benchmark("p1b3", scale=0.05, sample_scale=0.02)
    rows = []
    for strategy in STRATEGIES:
        batch = scale_batch_size(P1B3_SPEC.batch_size, 48, strategy)
        plan = ScalingPlan(
            benchmark="P1B3", mode="strong", nworkers=2, epochs_per_worker=15,
            batch_size=min(batch, bench.train_samples), learning_rate=0.02,
        )
        res = run_parallel_benchmark(bench, plan, seed=3)
        rows.append(
            {"strategy": strategy, "batch": batch,
             "train_mae": round(res.final_train_metric["mae"], 4)}
        )
    print(format_table(rows))
    best = min(rows, key=lambda r: r["train_mae"])["strategy"]
    print(f"\nbest accuracy: {best} (paper: cubic root, Fig 10b)")


if __name__ == "__main__":
    simulated_runtimes()
    real_accuracy()
