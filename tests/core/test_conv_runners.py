"""Both distributed runners feed a conv benchmark model-ready inputs.

P1B3's ``conv=True`` variant takes ``(features, 1)`` inputs: every
runner prepares the train *and* the test split through
:meth:`repro.candle.CandleBenchmark.prepare`, so fitting, validation
and evaluation all see the channel axis.
"""

import numpy as np

from repro.candle import get_benchmark
from repro.core import run_parallel_benchmark, strong_scaling_plan
from repro.resilience import run_resilient_benchmark


def _bench_and_plan():
    bench = get_benchmark("p1b3", scale=0.02, sample_scale=0.005, conv=True)
    return bench, strong_scaling_plan(bench.spec, 2, total_epochs=2)


def test_parallel_runner_evaluates_the_conv_variant():
    bench, plan = _bench_and_plan()
    res = run_parallel_benchmark(bench, plan, seed=3, local_size=2, validation=True)
    assert res.nworkers == 2
    assert "val_loss" in res.history
    for report in res.ranks:
        assert np.isfinite(report.eval_metrics["loss"])
        assert set(report.eval_metrics) == {"loss", "mae"}


def test_resilient_runner_evaluates_the_conv_variant(tmp_path):
    bench, plan = _bench_and_plan()
    res = run_resilient_benchmark(bench, plan, tmp_path / "ckpt", seed=3)
    assert res.nattempts == 1 and res.plan.nworkers == 2
    assert np.isfinite(res.final_loss)
    assert set(res.eval_metrics) == {"loss", "mae"}
