"""Deterministic fault injection across the SPMD and Horovod layers.

Three short demonstrations of :mod:`repro.resilience`'s fault
machinery:

1. **Reproducible schedules** — :meth:`FaultPlan.random` with the same
   seed draws the same faults, spec for spec; a run report can name the
   exact schedule that produced it.
2. **SPMD start-time faults** — :func:`repro.mpi.run_spmd` fires
   ``on_rank_start`` hooks, and when several ranks die the raised
   :class:`~repro.mpi.runtime.SpmdError` aggregates *all* failures
   (not just the first), which is what a post-mortem needs.
3. **Training-time faults** — a stall and a transient collective
   failure injected into a real 2-rank P1B2 training run through
   :class:`repro.hvd.FaultInjectionCallback`, recovered by the
   resilient runner.

Run:  python examples/fault_injection.py
"""

import tempfile

from repro.candle import get_benchmark
from repro.core.scaling import strong_scaling_plan
from repro.mpi import run_spmd
from repro.mpi.runtime import SpmdError
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    run_resilient_benchmark,
)


def demo_reproducible_schedules() -> None:
    print("1. seeded schedules are reproducible")
    plan_a = FaultPlan.random(nranks=4, epochs=6, n_faults=5, seed=42)
    plan_b = FaultPlan.random(nranks=4, epochs=6, n_faults=5, seed=42)
    print(f"   {plan_a.describe()}")
    print(f"   same seed, same draw: {plan_a.specs == plan_b.specs}")
    plan_c = FaultPlan.random(nranks=4, epochs=6, n_faults=5, seed=43)
    print(f"   different seed differs: {plan_a.specs != plan_c.specs}")


def demo_spmd_aggregation() -> None:
    print("2. run_spmd fires start-time faults and aggregates every failure")
    plan = FaultPlan(
        specs=(
            FaultSpec("crash", rank=1),  # epoch=None -> fires at rank start
            FaultSpec("crash", rank=3),
        )
    )
    injector = FaultInjector(plan)

    def job(comm):
        return comm.rank

    try:
        run_spmd(4, job, fault_injector=injector)
    except SpmdError as exc:
        print(f"   failed ranks: {exc.failed_ranks} (both reported, "
              f"first cause: {type(exc.cause).__name__})")


def demo_training_faults() -> None:
    print("3. training-time faults: stall + transient collective failure")
    bench = get_benchmark("p1b2", scale=0.05, sample_scale=0.2)
    # 8 total epochs over 2 workers -> each runs global epochs 0..3
    plan = strong_scaling_plan(bench.spec, nworkers=2, total_epochs=8)
    faults = FaultPlan(
        specs=(
            FaultSpec("stall", rank=1, epoch=1, delay_s=0.05),
            FaultSpec("collective", rank=0, epoch=2),
        )
    )
    result = run_resilient_benchmark(
        bench,
        plan,
        tempfile.mkdtemp(),
        seed=0,
        every_n_epochs=1,
        fault_plan=faults,
        retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
    )
    for a in result.attempts:
        print(f"   attempt {a.attempt}: {a.status:9s} "
              f"resumed from epoch {a.start_epoch}"
              + (f" (failed ranks {a.failed_ranks})" if a.failed_ranks else ""))
    print(f"   recovered: {result.recovered}, "
          f"final loss {result.final_loss:.6f}")


def main() -> None:
    demo_reproducible_schedules()
    demo_spmd_aggregation()
    demo_training_faults()


if __name__ == "__main__":
    main()
