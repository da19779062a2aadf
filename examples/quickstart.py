"""Quickstart: train a CANDLE benchmark under Horovod data parallelism.

Runs the NT3 benchmark (scaled down) on 4 SPMD ranks exactly the way
the paper parallelizes it: per-rank model build with different random
weights, rank-0 broadcast for consistent initialization, gradient
averaging through a DistributedOptimizer, linear learning-rate scaling,
and the three-phase control flow (load → train → evaluate).

Run:  python examples/quickstart.py
"""

from repro.candle import get_benchmark
from repro.core import run_parallel_benchmark, strong_scaling_plan


def main() -> None:
    # NT3 at 1% feature scale, 50% of its Table 1 sample count
    bench = get_benchmark("nt3", scale=0.01, sample_scale=0.5)
    print(f"benchmark: {bench.spec.name} — {bench.features} features, "
          f"{bench.train_samples} train samples")

    # strong scaling: 32 total epochs split over 4 workers, lr x 4
    plan = strong_scaling_plan(bench.spec, nworkers=4, total_epochs=32)
    print(f"plan: {plan.nworkers} workers x {plan.epochs_per_worker} epochs, "
          f"batch {plan.batch_size}, lr {plan.learning_rate}")

    result = run_parallel_benchmark(bench, plan, seed=7)

    print("\nphase seconds (slowest rank):")
    for phase, seconds in result.phase_seconds().items():
        print(f"  {phase:<6} {seconds:8.2f} s")

    acc = result.final_train_metric.get("accuracy")
    print(f"\nfinal training accuracy: {acc:.3f}")
    print(f"test-set metrics (identical on every rank): "
          f"{ {k: round(v, 4) for k, v in result.ranks[0].eval_metrics.items()} }")

    waits = [s.duration_s for s in result.tracer.spans_named("negotiate_broadcast")]
    print(f"\nbroadcast rendezvous waits per rank: "
          f"{[round(w, 3) for w in sorted(waits)]} s")
    n_allreduce = len(result.tracer.spans_named("nccl_allreduce"))
    print(f"gradient allreduce operations recorded: {n_allreduce}")


if __name__ == "__main__":
    main()
