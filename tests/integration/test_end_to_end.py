"""End-to-end integration: files on disk → parallel Horovod training →
consistent models, with the paper's full phase structure exercised by
real code (no simulation).
"""

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.core import (
    run_parallel_benchmark,
    strong_scaling_plan,
    weak_scaling_plan,
)


@pytest.mark.parametrize("name", ["nt3", "p1b2"])
def test_full_pipeline_from_files(name, tmp_path):
    """Write CSVs, load with the optimized method on every rank, train
    under Horovod, verify cross-rank consistency and learning."""
    bench = get_benchmark(name, scale=0.004, sample_scale=0.15)
    paths = bench.write_files(tmp_path, rng=np.random.default_rng(0))
    plan = strong_scaling_plan(bench.spec, 2, total_epochs=6)
    res = run_parallel_benchmark(
        bench, plan, data_paths=paths, load_method="chunked", seed=4
    )
    # phase structure
    phases = res.phase_seconds()
    assert phases["load"] > 0 and phases["train"] > 0 and phases["eval"] > 0
    # learning happened
    losses = res.history["loss"]
    assert losses[-1] < losses[0]
    # rank consistency
    finals = [r.eval_metrics["loss"] for r in res.ranks]
    assert max(finals) - min(finals) < 1e-9


def test_strong_scaling_divides_work():
    """Each worker runs total/N epochs; per-worker iteration count drops
    4x (wall time at laptop scale is GIL-bound, so we assert the
    division of work, which is what the simulator times at scale)."""
    bench = get_benchmark("nt3", scale=0.003, sample_scale=0.15)
    t1 = run_parallel_benchmark(
        bench, strong_scaling_plan(bench.spec, 1, total_epochs=8), seed=1
    )
    t4 = run_parallel_benchmark(
        bench, strong_scaling_plan(bench.spec, 4, total_epochs=8), seed=1
    )
    assert len(t1.history["loss"]) == 8
    assert len(t4.history["loss"]) == 2
    # LR was scaled linearly with workers
    assert t4.plan.learning_rate == pytest.approx(4 * t1.plan.learning_rate)


def test_more_epochs_per_worker_improves_accuracy():
    """The paper's central accuracy finding, on real training."""
    bench = get_benchmark("nt3", scale=0.008, sample_scale=0.5)
    accs = {}
    for epochs in (1, 8):
        plan = weak_scaling_plan(bench.spec, 2, epochs_per_worker=epochs)
        res = run_parallel_benchmark(bench, plan, seed=9)
        accs[epochs] = res.final_train_metric["accuracy"]
    assert accs[8] > accs[1] + 0.15
    assert accs[8] > 0.9


def test_timeline_records_full_communication_structure():
    bench = get_benchmark("nt3", scale=0.003, sample_scale=0.1)
    plan = strong_scaling_plan(bench.spec, 3, total_epochs=3)
    res = run_parallel_benchmark(bench, plan, seed=2)
    names = {s.name for s in res.tracer.spans}
    assert {"negotiate_broadcast", "mpi_broadcast", "nccl_allreduce"} <= names
    # one broadcast triple per rank
    assert len(res.tracer.spans_named("mpi_broadcast")) == 3
    # allreduces: steps * epochs_per_worker per rank (one fusion group);
    # fit runs the trailing partial batch, hence the ceiling
    steps = -(-bench.train_samples // plan.batch_size)
    expected = steps * plan.epochs_per_worker * 3
    assert len(res.tracer.spans_named("nccl_allreduce")) == expected
