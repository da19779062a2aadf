"""CANDLE/Supervisor-style hyperparameter search (paper Fig 1b).

The paper's system overview places a supervisor/workflow manager above
the benchmarks for hyperparameter optimization. This example sweeps the
exact hyperparameters the paper studies — epochs, batch size, learning
rate — over a scaled-down NT3 with a grid search, then refines the
learning rate with a random search, and prints the trial database.

Run:  python examples/hyperparameter_search.py
"""

import numpy as np

from repro.candle import get_benchmark
from repro.core.parallel import run_parallel_benchmark
from repro.core.scaling import ScalingPlan
from repro.supervisor import GridSearch, ParameterSpace, RandomSearch, Supervisor
from repro.telemetry.report import format_table


def main() -> None:
    bench = get_benchmark("nt3", scale=0.005, sample_scale=0.3)
    data = bench.synth_arrays(np.random.default_rng(0))

    def runner(cfg, seed):
        plan = ScalingPlan(
            benchmark="NT3",
            mode="strong",
            nworkers=1,
            epochs_per_worker=cfg["epochs"],
            batch_size=cfg["batch"],
            learning_rate=cfg["lr"],
        )
        res = run_parallel_benchmark(bench, plan, data=data, seed=seed)
        return {
            "loss": res.final_train_metric["loss"],
            "accuracy": res.final_train_metric["accuracy"],
        }

    supervisor = Supervisor(runner, base_seed=42)

    # stage 1: coarse grid over the paper's knobs
    grid = GridSearch(
        ParameterSpace(epochs=[2, 6], batch=[10, 20, 56], lr=[0.001, 0.004])
    )
    db = supervisor.run(grid)
    print(format_table(db.as_rows(), title="stage 1: grid search"))
    best = db.best("accuracy", mode="max")
    print(f"\nbest so far: {best.config} -> accuracy {best.metrics['accuracy']:.3f}")

    # stage 2: random-search refinement of the learning rate
    refine = RandomSearch(
        ParameterSpace(
            epochs=[best.config["epochs"]],
            batch=[best.config["batch"]],
            lr=("loguniform", 5e-4, 5e-2),
        ),
        n_trials=6,
        seed=1,
    )
    supervisor.run(refine, db=db)
    print()
    print(format_table(db.as_rows(), title="all trials after refinement"))
    best = db.best("accuracy", mode="max")
    print(f"\nfinal best: {best.config} -> accuracy {best.metrics['accuracy']:.3f} "
          f"({len(db)} trials, {len(db.failed())} failed)")


if __name__ == "__main__":
    main()
