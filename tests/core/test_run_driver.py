"""One run driver: the serial and parallel runners share every phase.

Each test pins a behaviour that only one runner had while each wrote
its own phase sequence: sharded loads at world 1, prefetched epochs
under Horovod, and training-time faults in a plain parallel run.
"""

import weakref

import numpy as np
import pytest

from repro.candle import get_benchmark, pipeline, run_benchmark
from repro.core import run_parallel_benchmark, strong_scaling_plan
from repro.ingest import LoaderConfig
from repro.mpi.runtime import SpmdError
from repro.nn import Sequential
from repro.resilience import FaultInjector, FaultPlan


@pytest.fixture(scope="module")
def nt3():
    return get_benchmark("nt3", scale=0.005, sample_scale=0.2)


@pytest.fixture(scope="module")
def nt3_paths(nt3, tmp_path_factory):
    return nt3.write_files(
        tmp_path_factory.mktemp("nt3"), rng=np.random.default_rng(3)
    )


def _bits(history):
    return {
        key: np.asarray(values).tobytes()
        for key, values in history.items()
        if key != "epoch_time"
    }


def test_serial_sharded_load_matches_chunked(nt3, nt3_paths):
    runs = [
        run_benchmark(nt3, data_paths=nt3_paths, load_method=method, epochs=2, seed=1)
        for method in ("chunked", "sharded")
    ]
    assert _bits(runs[1].history) == _bits(runs[0].history)
    assert runs[1].eval_metrics == runs[0].eval_metrics


def test_the_loaded_arrays_are_dropped_once_scaled(nt3, nt3_paths, monkeypatch):
    """The scaler's copies replace the arrays the load returned: none of
    the unscaled inputs (the arrays that own their memory, as views of
    the parsed matrices) is alive when ``fit`` starts."""
    loaded, alive_at_fit = [], []
    load, fit = pipeline.load_benchmark_data, Sequential.fit

    def spy_load(*args, **kwargs):
        data = load(*args, **kwargs)
        for x in (data.x_train, data.x_test):
            loaded.append(weakref.ref(x if x.base is None else x.base))
        return data

    def spy_fit(self, *args, **kwargs):
        alive_at_fit.extend(ref() is not None for ref in loaded)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_benchmark_data", spy_load)
    monkeypatch.setattr(Sequential, "fit", spy_fit)
    run_benchmark(nt3, data_paths=nt3_paths, load_method="chunked", scaler="maxabs",
                  epochs=1, seed=1)
    assert alive_at_fit == [False, False]


def test_parallel_prefetch_feeds_every_rank(nt3, nt3_paths):
    plan = strong_scaling_plan(nt3.spec, 2, total_epochs=4)
    res = run_parallel_benchmark(
        nt3,
        plan,
        data_paths=nt3_paths,
        load_method=LoaderConfig(method="chunked", prefetch=True, shuffle_seed=11),
        seed=1,
        local_size=2,
    )
    spans = res.tracer.spans_named("train")
    assert sorted(s.rank for s in spans) == [0, 1]
    assert all("prefetch_hidden_s" in s.attrs for s in spans)
    assert res.ranks[0].eval_metrics == res.ranks[1].eval_metrics


def test_parallel_epoch_crash_fails_the_run(nt3):
    plan = strong_scaling_plan(nt3.spec, 2, total_epochs=4)
    with pytest.raises(SpmdError) as exc:
        run_parallel_benchmark(
            nt3,
            plan,
            seed=1,
            fault_injector=FaultInjector(FaultPlan.single_crash(rank=1, epoch=1)),
        )
    assert exc.value.failed_ranks == [1]
