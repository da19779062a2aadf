"""Fault tolerance: checkpoint/restart (the paper's §7 future work).

Runs NT3 under Horovod through :func:`repro.resilience.run_resilient_benchmark`:
a :class:`~repro.resilience.CheckpointManager` writes an atomic,
checksummed checkpoint every 2 epochs, a deterministic
:class:`~repro.resilience.FaultPlan` kills rank 1 mid-training, and the
supervisor loop retries with backoff, resuming every rank from the
newest valid checkpoint. The recovered run's final test loss is
bit-identical to an uninterrupted run of the same total epochs (the
checkpoint restores every rank's RNG streams, shuffle order included).

Run:  python examples/checkpoint_restart.py
"""

import tempfile

from repro.candle import get_benchmark
from repro.core.scaling import strong_scaling_plan
from repro.resilience import FaultPlan, RetryPolicy, run_resilient_benchmark

WORKERS = 2
TOTAL_EPOCHS = 8  # 4 global epochs per worker (strong scaling)
CRASH_EPOCH = 2  # global epoch at whose end rank 1 dies


def main() -> None:
    bench = get_benchmark("nt3", scale=0.005, sample_scale=0.3)
    plan = strong_scaling_plan(
        bench.spec, nworkers=WORKERS, total_epochs=TOTAL_EPOCHS, batch_size=20
    )

    print(f"transient crash at epoch {CRASH_EPOCH}, "
          f"checkpoints every 2 epochs")
    result = run_resilient_benchmark(
        bench,
        plan,
        tempfile.mkdtemp(),
        seed=0,
        every_n_epochs=2,
        fault_plan=FaultPlan.single_crash(rank=1, epoch=CRASH_EPOCH),
        retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
    )
    for a in result.attempts:
        print(f"  attempt {a.attempt}: {a.status:9s} world={result.plan.nworkers} "
              f"resumed from epoch {a.start_epoch}"
              + (f" (failed ranks {a.failed_ranks})" if a.failed_ranks else ""))
    print(f"  recovered: {result.recovered}, final loss {result.final_loss:.6f}")

    print("reference: the same run with no faults injected")
    clean = run_resilient_benchmark(
        bench, plan, tempfile.mkdtemp(), seed=0, every_n_epochs=2
    )
    print(f"  clean loss {clean.final_loss:.6f} -> bit-exact recovery: "
          f"{clean.final_loss == result.final_loss}")


if __name__ == "__main__":
    main()
