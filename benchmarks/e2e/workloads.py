"""The four workloads: seeded set-up, the untraced end-to-end pass, and
the correctness checks that gate its numbers.

Every input (dataset, model seed, arrival trace) derives from ``seed``;
the program under test only ever sees the generated CSVs, arrays and
traces. Geometry is fixed per workload; ``seconds`` only scales how many
in-run repeats (epochs, rounds, phase seconds) are measured, so a
shorter run measures the same thing with fewer samples.

Each ``run_*`` returns a :class:`Result`: the end-to-end metrics every
workload reports (``throughput_per_s``, ``time_a_ms``, ``time_b_ms`` --
neutral names, because every workload has to report every metric; what
each one holds on a workload is ``MEANING`` below), a ``named`` view
carrying the same measurements under their per-workload names
(``load_s``, ``train_samples_per_s``, ...) with sample counts, medians
and percentiles, and the operation/failure counts.

A bounded timing is the best (shortest) of its in-run repeats, not
their median: on the shared 2-core VM this was written on, neighbours
only ever add time, in sub-second bursts, and over 800 interleaved
samples the minimum of 20 consecutive ones repeated within 7-9% where
their median repeated within 14-23%. The exception is the serving
capacity, where a round can also come out lucky (a ``sat`` round now and
then answers twice the usual rows/s): it is the median over rounds.
Medians of everything are in ``named``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.candle import get_benchmark
from repro.candle.pipeline import run_benchmark
from repro.core.parallel import run_parallel_benchmark
from repro.core.scaling import weak_scaling_plan
from repro.ingest import LoaderConfig, load_benchmark_data
from repro.nn import get_optimizer
from repro.serve import (
    OpenWorkload,
    ServeOptions,
    poisson_arrivals,
    request_features,
    serve_workload,
)
from repro.train import TrainOptions

__all__ = ["WORKLOADS", "MEANING", "Sizes", "Result", "summary", "timed"]

ARRAYS = ("x_train", "y_train", "x_test", "y_test")

#: workload -> what the three workload-specific end-to-end metrics hold
#: there, by the name the ``named`` view (and the issue) gives it
MEANING = {
    "nt3_train": {
        "throughput_per_s": "train_samples_per_s, best epoch",
        "time_a_ms": "evaluate_s (280 test rows), best call",
        "time_b_ms": "load_s (chunked), best load",
    },
    "io_wide": {
        "throughput_per_s": "file_mb / load_s (chunked), best load",
        "time_a_ms": "load_warm_cache_s, best load",
        "time_b_ms": "load_cold_cache_s, best load",
    },
    "p1b1_hvd_w2": {
        "throughput_per_s": "train_samples_per_s, best epoch of rank 0",
        "time_a_ms": "step_s of rank 0, best epoch / steps",
        "time_b_ms": "step_s of the slower rank, best epoch / steps",
    },
    "serve_p1b2_open": {
        "throughput_per_s": "serve_sat_rows_per_s, median round",
        "time_a_ms": "serve_p50_ms (r3000), best round",
        "time_b_ms": "serve_p99_ms (r3000), best round",
    },
}


# ---------------------------------------------------------------------------
# sizing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    """Geometry (fixed) and repeat counts (scaled by ``--seconds``)."""

    seconds: float
    smoke: bool = False

    def _n(self, per_second: float, floor: int) -> int:
        return max(floor, round(self.seconds * per_second))

    # nt3_train: 1,120 x 1,209, batch 20, SGD
    @property
    def nt3(self) -> dict:
        if self.smoke:
            return dict(scale=0.005, sample_scale=0.2, epochs=6, extra_evals=2, extra_loads=1)
        return dict(scale=0.02, sample_scale=1.0, epochs=self._n(0.25, 3),
                    extra_evals=self._n(0.55, 2), extra_loads=self._n(0.2, 2))

    # io_wide: 1,120 x 4,839 (~50 MB train + 12.6 MB test)
    @property
    def io(self) -> dict:
        if self.smoke:
            return dict(scale=0.004, sample_scale=0.1, rounds=2, warm=2)
        return dict(scale=0.08, sample_scale=1.0, rounds=self._n(0.2, 2), warm=2)

    # p1b1_hvd_w2: 810 x 6,048, 4.6 M params, batch 50, Adam, world 2
    @property
    def p1b1(self) -> dict:
        if self.smoke:
            return dict(scale=0.01, sample_scale=0.05, epochs=3, batch=50)
        return dict(scale=0.1, sample_scale=0.3, epochs=self._n(0.25, 3), batch=50)

    # serve_p1b2_open: 1,410 features, 63 k params, three open-loop phases
    @property
    def serve(self) -> dict:
        phase_s = 0.6 if self.smoke else max(1.0, self.seconds * 0.3)
        return dict(scale=0.05, phase_s=phase_s)


#: (phase, offered qps, admission policy, rounds the phase is split into);
#: ``sat`` offers ~2x capacity. A host stall lands in one round, so the
#: best round (and the median over rounds) survives it.
SERVE_PHASES = (("r200", 200.0, "block", 1), ("r3000", 3000.0, "block", 5),
                ("sat", 12000.0, "reject", 5))

SERVE_OPTIONS = dict(max_batch=32, deadline_ms=100.0, queue_depth=256, replicas=1)


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def timed(fn: Callable, *args, **kwargs):
    """``(result, wall seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def summary(samples) -> dict:
    """Median, sample count, and the highest percentile that still has at
    least ten samples beyond it (none below 100 samples: min/max then)."""
    data = sorted(float(v) for v in samples)
    out = {"n": len(data), "p50": statistics.median(data), "min": data[0], "max": data[-1]}
    if len(data) <= 64:
        out["samples"] = [float(v) for v in samples]
    for q in (99.9, 99.0, 95.0, 90.0):
        if len(data) * (100.0 - q) / 100.0 >= 10:
            out["p_hi"] = {"q": q, "value": float(np.percentile(data, q))}
            break
    return out


@dataclass
class Result:
    metrics: dict                      # the end-to-end metrics, by name
    named: dict                        # per-workload named view of the same run
    checks: dict                       # check name -> passed
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)

    def close(self) -> "Result":
        """Fold the checks into the operation counts."""
        self.attempted += len(self.checks)
        self.failed += sum(1 for ok in self.checks.values() if not ok)
        self.named["ops_failed_share"] = self.failed / self.attempted
        return self

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def _write_rows(path: str, matrix: np.ndarray) -> None:
    """Headerless CSV in the CANDLE file format (``%.6g`` cells); one
    ``%`` per row, which is what makes 50 MB files affordable to set up."""
    fmt = ",".join(["%.6g"] * matrix.shape[1])
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([fmt % tuple(row) for row in matrix.tolist()]))
        fh.write("\n")


def csv_bench(workload: str, sizes: Sizes):
    """The NT3-format benchmark whose files ``workload`` loads."""
    cfg = {"nt3_train": sizes.nt3, "io_wide": sizes.io}[workload]
    return get_benchmark("nt3", scale=cfg["scale"], sample_scale=cfg["sample_scale"])


def write_csv_files(workload: str, seed: int, sizes: Sizes, directory: str) -> None:
    """Generate the dataset and write its train/test CSVs (label column,
    then features) and, last, ``stamp.json`` with the generator's shapes."""
    bench = csv_bench(workload, sizes)
    data = bench.synth_arrays(np.random.default_rng(seed))
    os.makedirs(directory, exist_ok=True)
    for name, x, y in zip(bench.file_names(), (data.x_train, data.x_test),
                          (data.y_train, data.y_test)):
        labels = np.argmax(y, axis=1).astype(np.float64)
        _write_rows(os.path.join(directory, name), np.column_stack([labels, x[:, :, 0]]))
    with open(os.path.join(directory, "stamp.json"), "w") as fh:
        json.dump({"seed": seed, "shape": {k: getattr(data, k).shape for k in ARRAYS}}, fh)


def csv_files(workload: str, seed: int, sizes: Sizes, scratch: str, reuse: bool):
    """``(directory, (train_path, test_path), generator shapes)``.

    The files are written by a child process: the generator holds the
    whole matrix as Python floats and as text (several times the file
    size), and ``peak_rss_mb`` of this process has to be the program's.
    An existing set for the same seed and geometry is kept when ``reuse``
    (the traced pass picking up the e2e pass's files)."""
    bench = csv_bench(workload, sizes)
    directory = os.path.join(scratch, f"{workload}-{seed}")
    stamp_path = os.path.join(directory, "stamp.json")

    def stamp():
        if not os.path.isfile(stamp_path):
            return None
        with open(stamp_path) as fh:
            found = json.load(fh)
        geometry = [bench.train_samples, bench.features]
        return found if (found["seed"], found["shape"]["x_train"][:2]) == (seed, geometry) \
            else None

    if not (reuse and stamp()):
        if os.path.isfile(stamp_path):
            os.remove(stamp_path)
        # a plain child that is waited for: ``multiprocessing`` would also
        # start a resource tracker, which outlives this process by a moment
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), workload, str(seed),
             str(int(sizes.smoke)), directory],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))})
        if child.returncode != 0 or not stamp():
            raise RuntimeError(f"writing the {workload} files failed ({child.returncode})")
    shape = {k: tuple(v) for k, v in stamp()["shape"].items()}
    paths = tuple(os.path.join(directory, n) for n in bench.file_names())
    return directory, paths, shape


def compiled_model(bench, seed: int):
    model = bench.build_model(seed=seed)
    loss, names = {
        "classification": ("categorical_crossentropy", ["accuracy"]),
        "autoencoder": ("mse", []),
    }[bench.spec.task]
    model.compile(get_optimizer(bench.spec.optimizer, lr=bench.spec.learning_rate),
                  loss, metrics=names)
    return model


def same_arrays(a, b) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ARRAYS)


# ---------------------------------------------------------------------------
# nt3_train
# ---------------------------------------------------------------------------

def setup_nt3(seed: int, sizes: Sizes, scratch: str, reuse: bool = False) -> dict:
    bench = csv_bench("nt3_train", sizes)
    _, paths, _ = csv_files("nt3_train", seed, sizes, scratch, reuse)
    # the arrays behind the files, for the extra ``evaluate`` calls
    data = bench.synth_arrays(np.random.default_rng(seed))
    return dict(bench=bench, data=data, paths=paths, seed=seed, cfg=sizes.nt3,
                eval_model=compiled_model(bench, seed))


def run_nt3(inp: dict) -> Result:
    bench, data, cfg = inp["bench"], inp["data"], inp["cfg"]
    evals, loads = [], []

    def repeats(n_evals: int, n_loads: int) -> None:
        every = max(1, n_evals // max(1, n_loads))
        for i in range(n_evals):
            evals.append(timed(inp["eval_model"].evaluate, data.x_test, data.y_test)[1])
            if i % every == 0 and i // every < n_loads:
                loads.append(timed(load_benchmark_data, bench, *inp["paths"], method="chunked")[1])

    # The pipeline evaluates and loads once. evaluate costs the same on any
    # weights, so both are timed again, on a fresh model, interleaved, half
    # before the pipeline and half after it: a slow spell of the host lasts
    # seconds, and samples 12 s apart do not all fall into one.
    n_evals, n_loads = cfg["extra_evals"], cfg["extra_loads"]
    repeats(n_evals // 2, n_loads // 2)
    report, total_s = timed(
        run_benchmark, bench, data_paths=inp["paths"], load_method="chunked",
        validation=False, epochs=cfg["epochs"], seed=inp["seed"],
    )
    repeats(n_evals - n_evals // 2, n_loads - n_loads // 2)
    evals.append(report.eval_s)
    loads.append(report.load_s)
    epochs = report.history["epoch_time"][1:]  # the first pays lazy allocation
    rows, test_rows = len(data.x_train), len(data.x_test)
    loss = report.history["loss"]
    return Result(
        metrics={
            "throughput_per_s": rows / min(epochs),
            "time_a_ms": min(evals) * 1e3,
            "time_b_ms": min(loads) * 1e3,
        },
        named={
            "total_s": total_s,
            "load_s": summary(loads),
            "train_samples_per_s": rows / statistics.median(epochs),
            "epoch_s": summary(epochs),
            "eval_samples_per_s": test_rows / statistics.median(evals),
            "evaluate_s": summary(evals),
        },
        checks={
            "eval_below_first_epoch": report.eval_metrics["loss"] < loss[0],
            "loss_decreased": loss[-1] < loss[0],
        },
        attempted=len(loads) + len(loss) + len(evals),
        extra={"loss": loss, "eval_metrics": report.eval_metrics},
    ).close()


# ---------------------------------------------------------------------------
# io_wide
# ---------------------------------------------------------------------------

def setup_io(seed: int, sizes: Sizes, scratch: str, reuse: bool = False) -> dict:
    directory, paths, shape = csv_files("io_wide", seed, sizes, scratch, reuse)
    cache_dir = os.path.join(directory, "cache")
    shutil.rmtree(cache_dir, ignore_errors=True)  # every pass starts without a cache
    return dict(bench=csv_bench("io_wide", sizes), paths=paths, seed=seed, cfg=sizes.io,
                shape=shape, cache_dir=cache_dir,
                file_mb=sum(os.path.getsize(p) for p in paths) / 1e6)


def run_io(inp: dict) -> Result:
    bench, paths, cfg = inp["bench"], inp["paths"], inp["cfg"]
    cached = LoaderConfig(method="cached", cache_dir=inp["cache_dir"])
    chunked_s, cold_s, warm_s, equal = [], [], [], []

    def load_cached(samples: list) -> None:
        got, dt = timed(load_benchmark_data, bench, *paths, method=cached)
        samples.append(dt)
        equal.append(same_arrays(reference, got))

    # warm loads sit on both sides of the cold one (once a cache exists),
    # so that their samples span the whole run, not a second of each round
    for _ in range(cfg["rounds"]):
        reference, dt = timed(load_benchmark_data, bench, *paths, method="chunked")
        chunked_s.append(dt)
        if os.path.isdir(inp["cache_dir"]):
            for _ in range(cfg["warm"]):
                load_cached(warm_s)
            shutil.rmtree(inp["cache_dir"])
        load_cached(cold_s)
        for _ in range(cfg["warm"]):
            load_cached(warm_s)
        shape_ok = all(getattr(reference, k).shape == v for k, v in inp["shape"].items())
        del reference
    return Result(
        metrics={
            "throughput_per_s": inp["file_mb"] / min(chunked_s),
            "time_a_ms": min(warm_s) * 1e3,
            "time_b_ms": min(cold_s) * 1e3,
        },
        named={
            "load_s": summary(chunked_s),
            "load_cold_cache_s": summary(cold_s),
            "load_warm_cache_s": summary(warm_s),
            "file_mb": inp["file_mb"],
        },
        checks={"arrays_equal": all(equal), "shape_matches_generator": shape_ok},
        attempted=len(chunked_s) + len(cold_s) + len(warm_s),
    ).close()


# ---------------------------------------------------------------------------
# p1b1_hvd_w2
# ---------------------------------------------------------------------------

def p1b1_bench(sizes: Sizes):
    cfg = sizes.p1b1
    return get_benchmark("p1b1", scale=cfg["scale"], sample_scale=cfg["sample_scale"])


def setup_p1b1(seed: int, sizes: Sizes, scratch: str, reuse: bool = False) -> dict:
    cfg = sizes.p1b1
    bench = p1b1_bench(sizes)
    data = bench.synth_arrays(np.random.default_rng(seed))
    return dict(bench=bench, data=data, seed=seed, cfg=cfg)


def p1b1_plan(inp: dict, world: int, epochs: int):
    return weak_scaling_plan(inp["bench"].spec, world, epochs_per_worker=epochs,
                             batch_size=inp["cfg"]["batch"])


def run_p1b1(inp: dict) -> Result:
    bench, data, cfg = inp["bench"], inp["data"], inp["cfg"]
    plan = p1b1_plan(inp, 2, cfg["epochs"])
    result, total_s = timed(
        run_parallel_benchmark, bench, plan, data=data, seed=inp["seed"],
        local_size=2, train=TrainOptions(overlap=True),
    )
    epochs = result.history["epoch_time"][1:]
    slower_rank = max(min(r.history["epoch_time"][1:]) for r in result.ranks)
    rows = len(data.x_train)
    steps = -(-rows // min(plan.batch_size, rows))
    loss = result.history["loss"]
    evals = [r.eval_metrics for r in result.ranks]
    return Result(
        metrics={
            "throughput_per_s": rows / min(epochs),
            "time_a_ms": min(epochs) / steps * 1e3,
            "time_b_ms": slower_rank / steps * 1e3,
        },
        named={
            "total_s": total_s,
            "train_samples_per_s": rows / statistics.median(epochs),
            "epoch_s": summary(epochs),
            "steps_per_epoch": steps,
        },
        checks={
            "no_dead_ranks": not result.dead_ranks and len(result.ranks) == 2,
            "ranks_agree": all(e == evals[0] for e in evals),
            "loss_decreased": loss[-1] < loss[0],
        },
        attempted=len(loss) * len(result.ranks),
        extra={"loss": loss},
    ).close()


# ---------------------------------------------------------------------------
# serve_p1b2_open
# ---------------------------------------------------------------------------

def setup_serve(seed: int, sizes: Sizes, scratch: str, reuse: bool = False) -> dict:
    cfg = sizes.serve
    bench = get_benchmark("p1b2", scale=cfg["scale"])
    pool = bench.synth_arrays(np.random.default_rng(seed)).x_test
    reference = bench.build_model(seed=seed)
    weights = {k: v.copy() for k, v in reference.named_parameters().items()}
    arrivals = {
        name: [poisson_arrivals(qps, cfg["phase_s"] / rounds, seed=seed * 64 + i * 8 + r)
               for r in range(rounds)]
        for i, (name, qps, _, rounds) in enumerate(SERVE_PHASES)
    }
    return dict(bench=bench, pool=pool, reference=reference, weights=weights,
                arrivals=arrivals, seed=seed, cfg=cfg)


def serve_phase(inp: dict, name: str, admission: str) -> dict:
    """One open-loop phase through the public serving entry point, one
    call per round; ``r200`` keeps every response for the offline replay.
    Returns the phase's numbers: medians and bests over rounds, totals
    of counts."""
    bench, seed = inp["bench"], inp["seed"]
    options = ServeOptions(admission=admission, seed=seed, **SERVE_OPTIONS)
    reports = [
        serve_workload(
            lambda: bench.build_model(seed=seed), OpenWorkload(arrivals, 1),
            inp["pool"], options, initial_weights=inp["weights"],
            keep_responses=(name == "r200"),
        )
        for arrivals in inp["arrivals"][name]
    ]
    slos = [r.slo for r in reports]
    batches = sum(r.batches for r in reports)
    return {
        "rounds": len(reports),
        "sent": sum(len(a) for a in inp["arrivals"][name]),
        "completed": sum(s.requests for s in slos),
        "rejected": sum(s.rejected for s in slos),
        "shed": sum(s.shed for s in slos),
        "p50_ms": statistics.median(s.p50_ms for s in slos),
        "p99_ms": statistics.median(s.p99_ms for s in slos),
        "rows_per_s": statistics.median(s.rows_per_s for s in slos),
        "best_p50_ms": min(s.p50_ms for s in slos),
        "best_p99_ms": min(s.p99_ms for s in slos),
        "deadline_misses": sum(s.deadline_violations for s in slos),
        "batches": batches,
        "mean_batch_rows": sum(s.rows for s in slos) / batches,
        # wall - last arrival: bounds backlog and generator lateness
        "drain_s": max(s.wall_s - float(a[-1]) for s, a in zip(slos, inp["arrivals"][name])),
        "replayed": all(replay_identical(inp, r) for r in reports if r.responses is not None),
    }


def replay_identical(inp: dict, report) -> bool:
    """Recompute every dispatched batch on the reference model and compare
    each served prediction bit for bit."""
    reference, pool = inp["reference"], inp["pool"]
    for version, req_ids in report.batch_log:
        feats = np.concatenate([request_features(pool, rid, 1) for rid in req_ids])
        expected = reference.predict(feats, batch_size=len(feats))
        for row, rid in enumerate(req_ids):
            got_version, got = report.responses[rid]
            if got_version != version or not np.array_equal(got, expected[row:row + 1]):
                return False
    return len(report.responses) == report.slo.requests


def run_serve(inp: dict) -> Result:
    named, checks, attempted, failed = {}, {}, 0, 0
    for name, _, admission, _ in SERVE_PHASES:
        phase = named[name] = serve_phase(inp, name, admission)
        replayed = phase.pop("replayed")
        if name == "r200":
            checks["replay_bit_identical"] = replayed
        # refusals happen in ``sat`` only, where they are the measurement
        # (offered ~2x capacity by design); every admitted request is owed
        # an answer. A late answer is not a failed one: deadline misses are
        # printed per phase and show in the p99.
        admitted = phase["sent"] - phase["rejected"] - phase["shed"]
        attempted += admitted
        failed += admitted - phase["completed"]
        checks[f"accounted.{name}"] = admitted == phase["completed"]
        if name != "sat":
            checks[f"none_refused.{name}"] = admitted == phase["sent"]
    named.update(
        serve_p50_ms=named["r3000"]["p50_ms"],
        serve_p99_ms=named["r3000"]["p99_ms"],
        serve_sat_rows_per_s=named["sat"]["rows_per_s"],
    )
    return Result(
        metrics={
            "throughput_per_s": named["sat"]["rows_per_s"],
            "time_a_ms": named["r3000"]["best_p50_ms"],
            "time_b_ms": named["r3000"]["best_p99_ms"],
        },
        named=named, checks=checks, attempted=attempted, failed=failed,
    ).close()


#: name -> (setup, end-to-end pass, times set-up is repeated for its
#: median: more where one costs less); order is the report order
WORKLOADS: dict[str, tuple[Callable, Callable, int]] = {
    "nt3_train": (setup_nt3, run_nt3, 3),
    "io_wide": (setup_io, run_io, 2),
    "p1b1_hvd_w2": (setup_p1b1, run_p1b1, 15),
    "serve_p1b2_open": (setup_serve, run_serve, 25),
}


if __name__ == "__main__":  # the child of ``csv_files``: workload seed smoke directory
    write_csv_files(sys.argv[1], int(sys.argv[2]),
                    Sizes(seconds=0.0, smoke=bool(int(sys.argv[3]))), sys.argv[4])
