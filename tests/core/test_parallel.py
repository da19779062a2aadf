"""The functional parallel runner: phases, consistency, skew."""

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.cluster import IoSkewModel
from repro.core import run_parallel_benchmark, strong_scaling_plan, weak_scaling_plan


@pytest.fixture(scope="module")
def nt3():
    return get_benchmark("nt3", scale=0.005, sample_scale=0.2)


def test_phases_and_history(nt3):
    plan = strong_scaling_plan(nt3.spec, 2, total_epochs=4)
    res = run_parallel_benchmark(nt3, plan, seed=1)
    phases = res.phase_seconds()
    assert set(phases) == {"load", "train", "eval"}
    assert phases["train"] > 0
    assert len(res.history["loss"]) == 2  # 4 epochs / 2 workers
    assert res.nworkers == 2


def test_all_ranks_share_final_weights(nt3):
    plan = strong_scaling_plan(nt3.spec, 3, total_epochs=3)
    res = run_parallel_benchmark(nt3, plan, seed=2)
    losses = [r.eval_metrics["loss"] for r in res.ranks]
    assert max(losses) - min(losses) < 1e-9  # identical models everywhere


def test_single_worker_matches_plan(nt3):
    plan = strong_scaling_plan(nt3.spec, 1, total_epochs=2)
    res = run_parallel_benchmark(nt3, plan, seed=0)
    assert res.nworkers == 1
    assert len(res.history["loss"]) == 2


def test_injected_skew_appears_in_negotiate_broadcast(nt3):
    plan = strong_scaling_plan(nt3.spec, 3, total_epochs=3)
    res = run_parallel_benchmark(
        nt3, plan, seed=5, io_skew=IoSkewModel(cv=0.3), skew_scale_s=1.0
    )
    waits = [s.duration_s for s in res.tracer.spans_named("negotiate_broadcast")]
    # the fastest loader's wait must be ~the injected spread
    assert max(waits) > 0.2, waits


def test_from_files_exercises_loader(nt3, tmp_path):
    paths = nt3.write_files(tmp_path, rng=np.random.default_rng(3))
    plan = strong_scaling_plan(nt3.spec, 2, total_epochs=2)
    res = run_parallel_benchmark(nt3, plan, data_paths=paths, load_method="chunked", seed=1)
    assert res.phase_seconds()["load"] > 0
    assert len(res.history["loss"]) == 1


def test_weak_scaling_runs_fixed_epochs(nt3):
    plan = weak_scaling_plan(nt3.spec, 2, epochs_per_worker=3)
    res = run_parallel_benchmark(nt3, plan, seed=1)
    assert len(res.history["loss"]) == 3


def test_autoencoder_benchmark_runs():
    b = get_benchmark("p1b1", scale=0.003, sample_scale=0.05)
    plan = strong_scaling_plan(b.spec, 2, total_epochs=2)
    res = run_parallel_benchmark(b, plan, seed=1)
    assert "loss" in res.final_train_metric
