"""Microbenchmark: the zero-copy training step on an NT3-shaped model.

Measures ``train_on_batch`` on the NT3 conv stack, parameters and
gradients in a flat :class:`~repro.nn.ParameterArena` updated by fused
optimizer kernels, at float64 and at float32 (half the memory traffic
per step).

Also isolates the parameter-update phase and compares its allocation
high-water mark (tracemalloc peak): the fused slab kernels update every
parameter through preallocated scratch, where the name-keyed
``apply_gradients`` over the same arena's views allocates fresh
temporaries per parameter per step. Two bit-identity checks hold the
fused step to its references: ``apply_arena`` against
``apply_gradients`` on a second model, and the world-2 owner step
against allreduce-then-update.

The overlap section measures the PR 7 wait-free-backprop scheduler: the
same NT3 step at world 12 (2 nodes x 6 workers) on an emulated,
compute-dilated Summit fabric, overlapped vs serialized, asserting the
overlapped step is faster *and* lands bitwise-identical parameters.

Run standalone::

    python benchmarks/bench_trainstep.py --smoke   # CI-sized, identity only
    python benchmarks/bench_trainstep.py --full    # asserts update-phase
                                                   # allocations >= 5x lower,
                                                   # overlap >= 1.3x serialized
                                                   # (overlap fraction >= 0.6),
                                                   # and bitwise identity
    python benchmarks/bench_trainstep.py --smoke --json BENCH_trainstep.json

Under pytest the smoke path always runs; the full path is opt-in via
``TRAINSTEP_BENCH_FULL=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro import hvd
from repro.candle import get_benchmark
from repro.comms import CollectiveOptions
from repro.mpi import run_spmd
from repro.nn.optimizers import SGD
from repro.train import TrainOptions
from repro.telemetry.report import format_table

#: NT3 geometry at two sizes (features = 60483 * scale)
SMOKE_SHAPE = dict(scale=0.01, sample_scale=0.05)   # 604 features
FULL_SHAPE = dict(scale=0.05, sample_scale=0.05)    # 3024 features

BATCH = 20  # NT3's Table-1 batch size

CONFIGS = [
    ("arena f64 (fused)", TrainOptions()),
    ("arena f32 (fused)", TrainOptions(dtype="float32")),
]

# -- the overlap operating point --------------------------------------------
#
# The threaded runtime computes ~3 orders of magnitude slower than a
# V100, so real Summit wire times would be invisible next to emulated
# compute; ``emulate_fabric_scale`` dilates the priced seconds by a
# matching factor, putting the emulation at Summit's comm-to-compute
# ratio (comm ~0.6-0.7x of the backward window at world 12, where the
# wait-free schedule has something real to hide).
OVERLAP_WORLD = 12   # the paper's 2 nodes x 6 GPUs
OVERLAP_LOCAL = 6
OVERLAP_TRAIN = TrainOptions(
    overlap=True,
    overlap_channels=4,
    collective=CollectiveOptions(
        fusion_bytes=1 << 16,
        emulate_fabric="summit",
        emulate_fabric_scale=550.0,
    ),
)


def _data(features: int, dtype=np.float64, n: int = BATCH, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, features, 1)).astype(dtype)
    y = np.eye(2, dtype=dtype)[rng.integers(0, 2, size=n)]
    return x, y


def _compiled(bench, train, seed=1):
    model = bench.build_model(seed=seed, train=train)
    model.compile("sgd", "categorical_crossentropy", lr=0.001)
    return model


def time_train_step(bench, steps: int) -> dict[str, float]:
    """Mean seconds per ``train_on_batch`` for each configuration."""
    out = {}
    for label, train in CONFIGS:
        model = _compiled(bench, train)
        x, y = _data(bench.features, dtype=model.dtype)
        for _ in range(2):
            model.train_on_batch(x, y)  # warm caches and scratch buffers
        t0 = time.perf_counter()
        for _ in range(steps):
            model.train_on_batch(x, y)
        out[label] = (time.perf_counter() - t0) / steps
    return out


def update_alloc_peak(bench, per_param: bool, repeats: int = 5) -> int:
    """Allocation high-water (bytes) of one parameter-update phase.

    The forward/backward work is done outside the traced window so the
    measurement isolates exactly what the fused kernels replace:
    ``apply_gradients`` temporaries vs in-place slab updates.
    """
    model = _compiled(bench, TrainOptions())
    x, y = _data(bench.features)
    for _ in range(3):
        model.train_on_batch(x, y)  # steady state: scratch + optimizer state
    y_pred = model._forward(x, training=True)
    model._backward(y, y_pred)
    params, grads = model.named_parameters(), model.named_gradients()
    tracemalloc.start()
    peaks = []
    for _ in range(repeats):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        if per_param:
            model.optimizer.apply_gradients(params, grads)
        else:
            model.optimizer.apply_arena(model.arena)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
    return min(peaks)  # steadiest step: no warmup or GC noise


def check_single_process_identity(bench, steps: int) -> bool:
    """Fused ``apply_arena`` == per-parameter ``apply_gradients``, bitwise."""
    ref = _compiled(bench, TrainOptions())
    fused = _compiled(bench, TrainOptions())
    x, y = _data(bench.features)
    for _ in range(steps):
        ref._backward(y, ref._forward(x, training=True))
        ref.optimizer.apply_gradients(ref.named_parameters(), ref.named_gradients())
        fused.train_on_batch(x, y)
    return ref.arena.params_flat.tobytes() == fused.arena.params_flat.tobytes()


class _AllreduceThenUpdate(hvd.DistributedOptimizer):
    """The Horovod step without the owner step: allreduce every slab
    slice, then one whole-slab update."""

    def apply_arena(self, arena) -> None:
        self.reduce_arena(arena)
        self.base.apply_arena(arena)


def check_distributed_identity(bench, epochs: int = 2) -> bool:
    """World-2 owner step == allreduce-then-update, bitwise, every rank."""
    x, y = _data(bench.features, n=4 * BATCH)

    def run(optimizer_cls):
        def worker(comm):
            hvd.init(comm)
            try:
                model = bench.build_model(seed=1 + comm.rank)
                model.compile(
                    optimizer_cls(SGD(lr=0.001, momentum=0.9)),
                    "categorical_crossentropy",
                )
                shard = slice(comm.rank * 2 * BATCH, (comm.rank + 1) * 2 * BATCH)
                model.fit(
                    x[shard], y[shard], batch_size=BATCH, epochs=epochs,
                    shuffle=False,
                    callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
                )
                return model.arena.params_flat.tobytes()
            finally:
                hvd.shutdown()

        return run_spmd(2, worker)

    owner = run(hvd.DistributedOptimizer)
    reference = run(_AllreduceThenUpdate)
    return len(set(owner + reference)) == 1


# -- compute/communication overlap ------------------------------------------

def _overlap_fit(bench, train, world, local, epochs, x, y):
    """One SPMD fit under ``train``; per-rank timing, stats, parameters."""

    def worker(comm):
        hvd.init(comm)
        try:
            model = bench.build_model(seed=1 + comm.rank, train=train)
            opt = hvd.DistributedOptimizer(SGD(lr=0.001), train=train)
            # loss only: metric evaluation is single-thread compute that
            # dilutes the backward window the scheduler hides comm in
            model.compile(opt, "categorical_crossentropy")
            shard = slice(comm.rank * BATCH, (comm.rank + 1) * BATCH)
            fit_kw = dict(batch_size=BATCH, shuffle=False, train=train)
            # warmup epoch: broadcast + scratch/cache warm, untimed
            model.fit(
                x[shard], y[shard], epochs=1,
                callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
                **fit_kw,
            )
            t0 = time.perf_counter()
            model.fit(x[shard], y[shard], epochs=epochs, **fit_kw)
            fit_s = time.perf_counter() - t0
            stats = model.last_overlap_stats
            return {
                "fit_s": fit_s,
                "params": model.arena.params_flat.copy(),
                "hidden_s": stats.hidden_s if stats is not None else 0.0,
                "comm_s": stats.comm_s if stats is not None else 0.0,
            }
        finally:
            hvd.shutdown()

    return run_spmd(world, worker, local_size=local)


def measure_overlap(full: bool) -> dict:
    """Overlapped vs serialized wait-free-backprop step, same seeds/data.

    Returns the measured speedup (slowest overlapped rank vs slowest
    serialized rank), the aggregate overlap fraction (total hidden comm
    over total comm, across ranks), and whether both runs produced
    bitwise-identical parameters on every rank.
    """
    bench = get_benchmark("nt3", **SMOKE_SHAPE)
    world = OVERLAP_WORLD if full else 4
    local = OVERLAP_LOCAL if full else 2
    epochs = 6 if full else 2
    x, y = _data(bench.features, n=world * BATCH)
    # 12 rank threads GIL-share this core; the default 5 ms switch
    # interval adds ~worlds x 5 ms of wakeup latency to every bucket
    # handoff, so tighten it for the measurement and restore after
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        overlapped = _overlap_fit(bench, OVERLAP_TRAIN, world, local, epochs, x, y)
        serialized = _overlap_fit(
            bench, OVERLAP_TRAIN.evolve(overlap=False), world, local, epochs, x, y
        )
    finally:
        sys.setswitchinterval(old_switch)

    over_s = max(r["fit_s"] for r in overlapped)
    serial_s = max(r["fit_s"] for r in serialized)
    comm = sum(r["comm_s"] for r in overlapped)
    hidden = sum(r["hidden_s"] for r in overlapped)
    identical = all(
        np.array_equal(r["params"], overlapped[0]["params"])
        for r in overlapped + serialized
    )
    return {
        "world": world,
        "local_size": local,
        "epochs_timed": epochs,
        "serialized_s": serial_s,
        "overlapped_s": over_s,
        "speedup_vs_serialized": serial_s / over_s,
        "overlap_fraction": hidden / comm if comm > 0 else 0.0,
        "bit_identical_overlap": identical,
    }


def run_bench(full: bool = False, json_path: str | None = None) -> dict:
    shape = FULL_SHAPE if full else SMOKE_SHAPE
    steps = 10 if full else 3
    bench = get_benchmark("nt3", **shape)

    timings = time_train_step(bench, steps)
    alloc_ref = update_alloc_peak(bench, per_param=True)
    alloc_fused = update_alloc_peak(bench, per_param=False)
    ident_single = check_single_process_identity(bench, steps=max(5, steps))
    ident_dist = check_distributed_identity(bench)
    # the overlap measurement is a wall-clock race on a shared machine;
    # one retry absorbs a noisy trial without hiding a real regression
    overlap = measure_overlap(full)
    if full and (
        overlap["speedup_vs_serialized"] < 1.3
        or overlap["overlap_fraction"] < 0.6
    ):
        retry = measure_overlap(full)
        retry["bit_identical_overlap"] &= overlap["bit_identical_overlap"]
        overlap = retry

    rows = [
        {"config": label, "ms_per_step": round(t * 1e3, 2)}
        for label, t in timings.items()
    ]
    print(format_table(rows, title=f"NT3 train step, {bench.features} features, batch {BATCH}"))
    alloc_ratio = alloc_ref / max(alloc_fused, 1)
    print(
        f"update-phase allocation peak: per-param {alloc_ref} B, "
        f"fused {alloc_fused} B ({alloc_ratio:.0f}x lower)"
    )
    print(
        f"bit-identical: single (fused vs per-param)={ident_single} "
        f"spmd (owner step vs allreduce-then-update)={ident_dist}"
    )
    print(
        f"overlap @ world {overlap['world']}: "
        f"{overlap['speedup_vs_serialized']:.2f}x vs serialized, "
        f"fraction {overlap['overlap_fraction']:.2f}, "
        f"identical={overlap['bit_identical_overlap']}"
    )

    result = {
        "features": bench.features,
        "batch": BATCH,
        "steps_timed": steps,
        "ms_per_step": {label: t * 1e3 for label, t in timings.items()},
        "update_alloc_peak_bytes": {"per_param": alloc_ref, "fused": alloc_fused},
        "update_alloc_ratio": alloc_ratio,
        "bit_identical_single": ident_single,
        "bit_identical_spmd": ident_dist,
        "overlap": overlap,
        "overlap_fraction": overlap["overlap_fraction"],
        "speedup_vs_serialized": overlap["speedup_vs_serialized"],
        "mode": "full" if full else "smoke",
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {json_path}")

    assert ident_single, "the fused update diverged bitwise from the per-parameter one"
    assert ident_dist, "the owner step diverged bitwise from allreduce-then-update"
    assert overlap["bit_identical_overlap"], (
        "overlapped training diverged bitwise from the serialized step"
    )
    if full:
        assert alloc_ratio >= 5.0, (
            f"update-phase allocations only {alloc_ratio:.1f}x lower (need >= 5x)"
        )
        osp = overlap["speedup_vs_serialized"]
        assert osp >= 1.3, (
            f"overlapped step only {osp:.2f}x over serialized (need >= 1.3x)"
        )
        frac = overlap["overlap_fraction"]
        assert frac >= 0.6, (
            f"only {frac:.2f} of gradient comm hidden behind backward "
            "(need >= 0.6)"
        )
    return result


# -- pytest entry points ----------------------------------------------------

def test_smoke_trainstep_identity(capsys):
    with capsys.disabled():
        print()
        run_bench(full=False)


@pytest.mark.skipif(
    os.environ.get("TRAINSTEP_BENCH_FULL") != "1",
    reason="full train-step bench needs TRAINSTEP_BENCH_FULL=1",
)
def test_full_trainstep_criteria(capsys):
    with capsys.disabled():
        print()
        run_bench(full=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true", help="CI-sized, identity checks only")
    group.add_argument("--full", action="store_true", help="NT3 at 3024 features + speed/alloc asserts")
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    args = parser.parse_args(argv)
    run_bench(full=args.full, json_path=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
