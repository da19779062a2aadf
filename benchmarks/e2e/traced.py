"""The traced pass: each workload driven again, layer by layer.

Where the end-to-end pass makes one call into a public entry point, this
pass makes the calls that entry point makes — loader, scaler, model
build, fit, evaluate, collectives, serving phases — from this file, each
inside a span of the benchmark's own recorder (:mod:`spans`). A span is
named ``<layer>.<operation>`` with ``layer`` one of the ``repro.*``
packages; everything below ``bench.workload`` is the workload itself,
everything below ``bench.micro`` is a layer driven directly for a
per-call cost.

Each ``trace_*`` returns the per-layer metrics the workload exercises;
the runner reports 0 for a declared metric a workload does not touch.
End-to-end numbers never come from here.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
import tracemalloc
from typing import Callable

import numpy as np

from repro import hvd
from repro.candle.base import LoadedData
from repro.candle.data import one_hot
from repro.candle.pipeline import run_benchmark
from repro.candle.preprocessing import get_scaler
from repro.core.parallel import run_parallel_benchmark
from repro.frame import read_csv
from repro.ingest import DataSource, EpochPrefetcher, LoaderConfig, load_benchmark_data
from repro.mpi import run_spmd
from repro.nn import Callback, get_optimizer
from repro.ps.rpc import RpcChannel
from repro.resilience import CheckpointManager
from repro.serve import DynamicBatcher, Request, ServeOptions
from repro.train import TrainOptions

from spans import SpanRecorder, span_cost_s
from workloads import (
    SERVE_OPTIONS,
    SERVE_PHASES,
    compiled_model,
    p1b1_plan,
    same_arrays,
    serve_phase,
    p1b1_bench,
    timed,
)

__all__ = ["TRACERS", "LAYERS", "workload_span_metrics"]

#: layers a ``<layer>.self_s`` metric is reported for
LAYERS = ("frame", "ingest", "candle", "nn", "comms", "hvd", "resilience", "serve")

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
#: steps of the fixed-input fit whose losses are compared with the golden
GOLDEN_STEPS = 10


def _p(samples, q: float) -> float:
    return float(np.percentile(samples, q))


def _ms(samples) -> list[float]:
    return [s * 1e3 for s in samples]


class StepSpans(Callback):
    """One ``nn.train_on_batch`` span per training step (batch callbacks
    fire on either side of the call)."""

    def __init__(self, rec: SpanRecorder):
        super().__init__()
        self.rec = rec
        self._open = None

    def on_batch_begin(self, batch, logs=None):
        self._open = self.rec.begin("nn.train_on_batch")

    def on_batch_end(self, batch, logs=None):
        self.rec.end(self._open)


def _nt3_arrays(rec: SpanRecorder, train_frame, test_frame) -> LoadedData:
    """``NT3Benchmark.from_frames`` taken apart: the frame-to-matrix
    conversion (frame) and the label/feature split (candle). Callers check
    it against the real ``from_frames`` once per run."""
    with rec.span("frame.to_numpy"):
        train = train_frame.to_numpy(dtype=np.float64)
        test = test_frame.to_numpy(dtype=np.float64)
    with rec.span("candle.split"):
        return LoadedData(
            train[:, 1:, None], one_hot(train[:, 0].astype(np.int64), 2),
            test[:, 1:, None], one_hot(test[:, 0].astype(np.int64), 2),
        )


def workload_span_metrics(rec: SpanRecorder):
    """What every workload derives from its ``bench.workload`` span: the
    span itself, self seconds per layer below it, and the ``<layer>.self_s``
    and tracing-overhead metrics. The overhead is the spans recorded below
    the root times the measured cost of one begin/end pair, over the root's
    wall. (Differencing a traced and an untraced ~20 s run on this box has
    several percent of noise, far above the quantity itself.)"""
    root = next(s for s in rec.spans if s.name == "bench.workload")
    by_layer = rec.layer_self_seconds(root.index)
    values = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    values["telemetry.trace_overhead_frac"] = (
        len(rec.descendants(root.index)) * span_cost_s() / root.duration
    )
    return root, by_layer, values


def _predict_rates(rec: SpanRecorder, model, pool: np.ndarray, budget_s: float = 0.6) -> dict:
    """``predict`` rows/s at request batch sizes 1, 32 and 256."""
    out = {}
    for batch in (1, 32, 256):
        x = np.concatenate([pool] * (batch // len(pool) + 1))[:batch]
        walls, spent = [], 0.0
        while len(walls) < 2 or (spent < budget_s and len(walls) < 200):
            with rec.span(f"nn.predict.b{batch}") as sp:
                model.predict(x, batch_size=batch)
            walls.append(sp.duration)
            spent += sp.duration
        out[f"nn.predict_rows_per_s.b{batch}"] = batch / statistics.median(walls)
    return out


def _golden_steps(rec: SpanRecorder, bench, name: str, batch: int, write: bool) -> dict:
    """``GOLDEN_STEPS`` ``train_on_batch`` calls on fixed inputs: step wall,
    steady-state transient allocation, and drift of the loss sequence from
    the committed golden. The inputs come from a constant, not ``--seed``,
    because a golden has to be comparable at every seed."""
    data = bench.synth_arrays(np.random.default_rng(2019))
    model = compiled_model(bench, seed=2019)
    x, y = data.x_train[:batch], data.y_train[:batch]
    losses, walls = [], []
    for _ in range(GOLDEN_STEPS):
        with rec.span("nn.train_on_batch") as sp:
            losses.append(model.train_on_batch(x, y)["loss"])
        walls.append(sp.duration)
    # peak transient bytes of one more step, warmed buffers in place
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    model.train_on_batch(x, y)
    alloc = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    out = {
        "nn.train_on_batch_ms_p50": statistics.median(walls[2:]) * 1e3,
        "nn.alloc_kb_per_step": alloc / 1024.0,
        "nn.loss_drift_rel": 0.0,
    }
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if write:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"features": bench.features, "batch": batch, "loss": losses}, fh, indent=1)
    with open(path) as fh:
        golden = json.load(fh)
    if golden["features"] == bench.features:  # smoke geometry has no golden
        out["nn.loss_drift_rel"] = max(
            abs(a - b) / abs(b) for a, b in zip(losses, golden["loss"])
        )
    return out


# ---------------------------------------------------------------------------
# nt3_train
# ---------------------------------------------------------------------------

def trace_nt3(inp: dict, rec: SpanRecorder) -> dict:
    bench, cfg, seed = inp["bench"], inp["cfg"], inp["seed"]
    train_path, test_path = inp["paths"]
    epochs = min(2, cfg["epochs"])
    out: dict = {}

    with rec.span("bench.workload"):
        with rec.span("ingest.load"):
            chunked = LoaderConfig(method="chunked")
            train = DataSource(train_path).load(chunked)
            test = DataSource(test_path).load(chunked)
        data = _nt3_arrays(rec, train.frame, test.frame)
        with rec.span("bench.check"):
            faithful = same_arrays(data, bench.from_frames(train.frame, test.frame))
        with rec.span("candle.scale") as sp_scale:
            scaler = get_scaler("maxabs")
            x_train = scaler.fit_transform(
                data.x_train.reshape(len(data.x_train), -1)).reshape(data.x_train.shape)
            x_test = scaler.transform(
                data.x_test.reshape(len(data.x_test), -1)).reshape(data.x_test.shape)
        with rec.span("nn.build"):
            model = compiled_model(bench, seed)
        cpu0 = time.process_time()
        with rec.span("nn.fit"):
            history = model.fit(
                x_train, data.y_train, batch_size=bench.effective_batch_size(),
                epochs=epochs, callbacks=[StepSpans(rec)],
            )
        cpu_s = time.process_time() - cpu0
        with rec.span("nn.evaluate") as sp_eval:
            model.evaluate(x_test, data.y_test)
    steps = rec.durations("nn.train_on_batch")

    with rec.span("bench.micro"):
        # the real entry point once, for what it spends outside its phases
        with rec.span("candle.run_benchmark") as sp_run:
            report = run_benchmark(
                bench, data_paths=inp["paths"], load_method="chunked",
                validation=False, epochs=1, seed=seed,
            )
        glue = sp_run.duration - (report.load_s + report.train_s + report.eval_s)
        # the same fit fed by the background epoch loader
        prefetch_model = compiled_model(bench, seed)
        feeder = EpochPrefetcher.from_config(
            x_train, data.y_train, epochs, LoaderConfig(prefetch=True, shuffle_seed=seed))
        with rec.span("nn.fit_prefetched"):
            prefetch_model.fit(feeder, batch_size=bench.effective_batch_size())
        prefetch = prefetch_model.last_prefetch_stats
        one_batch = x_test[: bench.effective_batch_size()]
        forward = []
        for _ in range(15):
            with rec.span("nn.predict") as sp:
                model.predict(one_batch, batch_size=len(one_batch))
            forward.append(sp.duration)
        out.update(_predict_rates(rec, model, x_test))
        out.update(_golden_steps(
            rec, bench, "nt3_train", bench.effective_batch_size(), inp["write_golden"]))

    out.update({
        "frame.parse_chunks": train.stats.chunks_parsed + test.stats.chunks_parsed,
        "frame.peak_tokens": max(train.stats.peak_chunk_tokens, test.stats.peak_chunk_tokens),
        "ingest.chunked_s": train.seconds + test.seconds,
        "ingest.prefetch_hidden_fraction": prefetch.hidden_fraction,
        "ingest.prefetch_wait_s": prefetch.wait_s,
        "candle.scale_s": sp_scale.duration,
        "candle.total_s": sp_run.duration,
        "candle.glue_s": glue,
        "candle.unattributed_fraction": glue / sp_run.duration,
        "nn.step_ms_p50": _p(_ms(steps), 50),
        "nn.step_ms_p95": _p(_ms(steps), 95),
        "nn.forward_ms_p50": statistics.median(forward) * 1e3,
        "nn.bwd_update_ms_p50": _p(_ms(steps), 50) - statistics.median(forward) * 1e3,
        "nn.epoch_s_p50": statistics.median(history.history["epoch_time"]),
        "nn.eval_s": sp_eval.duration,
        "nn.cpu_s_per_epoch": cpu_s / epochs,
    })
    inp["traced_checks"] = {"redrive_matches_from_frames": faithful}
    return out


# ---------------------------------------------------------------------------
# io_wide
# ---------------------------------------------------------------------------

def trace_io(inp: dict, rec: SpanRecorder) -> dict:
    bench, cfg = inp["bench"], inp["cfg"]
    train_path, test_path = inp["paths"]
    cache_dir = inp["cache_dir"]
    cached = LoaderConfig(method="cached", cache_dir=cache_dir)
    shutil.rmtree(cache_dir, ignore_errors=True)
    seconds: dict[str, list[float]] = {}
    hits = misses = 0

    def load(label: str, config: LoaderConfig):
        """``load_benchmark_data`` taken apart: two DataSource loads, then
        the frames-to-arrays conversion."""
        nonlocal hits, misses
        with rec.span(f"ingest.load.{label}"):
            train = DataSource(train_path).load(config)
            test = DataSource(test_path).load(config)
        data = _nt3_arrays(rec, train.frame, test.frame)
        seconds.setdefault(label, []).append(train.seconds + test.seconds)
        for res in (train, test):
            hits += res.cache_hit is True
            misses += res.cache_hit is False
        return data, train

    with rec.span("bench.workload"):
        reference, chunked_train = load("chunked", LoaderConfig(method="chunked"))
        equal = []
        for label, config in (
            ("original", LoaderConfig(method="original")),
            ("parallel", LoaderConfig(method="parallel", num_workers=2)),
            ("cached_cold", cached),
        ) + (("cached_warm", cached),) * (cfg["warm"] + 1):
            data, _ = load(label, config)
            with rec.span("bench.check"):
                equal.append(same_arrays(reference, data))
        del data
        # the parser and the column conversion on their own (test file)
        test_mb = os.path.getsize(test_path) / 1e6
        with rec.span("frame.read_csv.chunked") as sp_parse:
            frame = read_csv(test_path, header=None, low_memory=False)
        with rec.span("frame.read_csv.original") as sp_original:
            read_csv(test_path, header=None, low_memory=True)
        with rec.span("frame.to_numpy") as sp_numpy:
            frame.to_numpy(dtype=np.float64)
        # the other disk-facing layer: checkpoint a 37 MB model and read it back
        model = compiled_model(p1b1_bench(inp["sizes"]), inp["seed"])
        manager = CheckpointManager(os.path.join(os.path.dirname(cache_dir), "ckpt"), keep_last=2)
        save_s, restore_s = [], []
        for epoch in range(max(3, cfg["rounds"] + 2)):
            with rec.span("resilience.save") as sp:
                info = manager.save(model, epoch)
            save_s.append(sp.duration)
            with rec.span("resilience.restore_latest") as sp:
                manager.restore_latest(model)
            restore_s.append(sp.duration)

    with rec.span("bench.micro"):  # the taken-apart load against the real one
        real = load_benchmark_data(bench, train_path, test_path, method="chunked")
        equal.append(same_arrays(reference, real))
        del real
    stats = chunked_train.stats
    cold, chunked = seconds["cached_cold"][0], seconds["chunked"][0]
    out = {
        "frame.parse_s": sp_parse.duration,
        "frame.parse_mb_per_s": test_mb / sp_parse.duration,
        "frame.parse_original_s": sp_original.duration,
        "frame.to_numpy_s": sp_numpy.duration,
        "frame.parse_chunks": stats.chunks_parsed,
        "frame.peak_tokens": stats.peak_chunk_tokens,
        "ingest.chunked_s": chunked,
        "ingest.original_s": seconds["original"][0],
        "ingest.parallel_s": seconds["parallel"][0],
        "ingest.cached_cold_s": cold,
        "ingest.cached_warm_s": statistics.median(seconds["cached_warm"]),
        "ingest.cache_write_s": cold - chunked,
        "ingest.cache_hits": hits,
        "ingest.cache_misses": misses,
        "resilience.ckpt_save_ms_p50": statistics.median(save_s) * 1e3,
        "resilience.ckpt_restore_ms_p50": statistics.median(restore_s) * 1e3,
        "resilience.ckpt_bytes": os.path.getsize(info.path),
    }
    inp["traced_checks"] = {"arrays_equal_all_methods": all(equal)}
    return out


# ---------------------------------------------------------------------------
# p1b1_hvd_w2
# ---------------------------------------------------------------------------

class SpannedDistributedOptimizer(hvd.DistributedOptimizer):
    """The serialized Horovod step taken apart: ``apply_arena`` is the
    gradient exchange (comms) followed by the wrapped optimizer's fused
    update (nn), each in its own span. Used only without overlap; the
    traced run checks its losses against the real overlapped path."""

    def __init__(self, base, rec: SpanRecorder, **kwargs):
        super().__init__(base, **kwargs)
        self._rec = rec

    def apply_arena(self, arena) -> None:
        with self._rec.span("comms.reduce_arena"):
            self.reduce_arena(arena)
        with self._rec.span("nn.optimizer.apply_arena"):
            self.base.apply_arena(arena)


def _hvd_fit(inp: dict, rec: SpanRecorder, world: int, overlap: bool, rows: int, epochs: int):
    """The training phase of ``run_parallel_benchmark`` from this file:
    rank 0 records spans and returns step walls, comm counters per step,
    the broadcast wall and the overlap statistics."""
    bench, data, seed = inp["bench"], inp["data"], inp["seed"]
    train = TrainOptions(overlap=overlap)
    x, y = data.x_train[:rows], data.y_train[:rows]
    batch = min(inp["cfg"]["batch"], rows)

    def worker(comm):
        hvd.init(comm)
        try:
            # only rank 0 records; rank 1 gets a recorder nobody reads
            mine = rec if comm.rank == 0 else SpanRecorder("rank1")
            with mine.span("nn.build", parent=world_span.index):
                model = bench.build_model(seed=seed + 1000 * (comm.rank + 1), train=train)
                base = get_optimizer(bench.spec.optimizer, lr=bench.spec.learning_rate)
                if overlap:
                    optimizer = hvd.DistributedOptimizer(base, train=train)
                else:
                    optimizer = SpannedDistributedOptimizer(base, mine, train=train)
                model.compile(optimizer, "mse")
            with mine.span("hvd.broadcast_weights", parent=world_span.index) as sp_bcast:
                hvd.broadcast_weights(model, root=0)
            bcast_s = sp_bcast.duration
            before = comm.stats.as_dict()
            with mine.span("nn.fit", parent=world_span.index):
                history = model.fit(x, y, batch_size=batch, epochs=epochs,
                                    callbacks=[StepSpans(mine)], train=train)
            after = comm.stats.as_dict()
            steps = epochs * -(-rows // batch)
            return {
                "bcast_s": bcast_s,
                "per_step": {k: (after[k] - before[k]) / steps for k in after},
                "allreduces_per_step": optimizer.allreduce_count / steps,
                "overlap": model.last_overlap_stats,
                "steps": steps,
                "loss": history.history["loss"],
            }
        finally:
            hvd.shutdown()

    first = len(rec.spans)
    with rec.span(f"hvd.run_spmd.w{world}.{'overlap' if overlap else 'serial'}") as world_span:
        rank0 = run_spmd(world, worker, local_size=2)[0]
    rank0["step_s"] = [s.duration for s in rec.spans[first:] if s.name == "nn.train_on_batch"]
    rank0["comm_s"] = [s.duration for s in rec.spans[first:] if s.name == "comms.reduce_arena"]
    return rank0


def _allreduce_walls(nbytes: int, calls: int) -> list[float]:
    """Barrier-paired ``hvd.allreduce`` of one gradient-sized buffer at
    world 2; rank 0's walls."""

    def worker(comm):
        hvd.init(comm)
        try:
            buf = np.random.default_rng(comm.rank).random(nbytes // 8)
            walls = []
            for _ in range(calls):
                comm.barrier()
                t0 = time.perf_counter()
                hvd.allreduce(buf, op="mean", name="grad")
                walls.append(time.perf_counter() - t0)
            return walls
        finally:
            hvd.shutdown()

    return run_spmd(2, worker, local_size=2)[0]


def _p2p_roundtrip_us(calls: int = 2000) -> float:
    def worker(comm):
        walls = []
        for _ in range(calls):
            if comm.rank == 0:
                t0 = time.perf_counter()
                comm.send(b"ping", 1, tag=7)
                comm.recv(1, tag=7)
                walls.append(time.perf_counter() - t0)
            else:
                comm.send(comm.recv(0, tag=7), 0, tag=7)
        return walls

    return statistics.median(run_spmd(2, worker)[0]) * 1e6


def trace_p1b1(inp: dict, rec: SpanRecorder) -> dict:
    bench, cfg, smoke = inp["bench"], inp["cfg"], inp["sizes"].smoke
    # per-step geometry is the workload's (batch x features); fewer steps
    # per epoch than the e2e pass so three variants fit in one run
    rows = min(len(inp["data"].x_train), 10 * cfg["batch"])
    skip = 0 if smoke else 4  # steps that pay lazy allocation and thread start

    with rec.span("bench.workload"):
        serial = _hvd_fit(inp, rec, world=2, overlap=False, rows=rows, epochs=2)
    with rec.span("bench.micro"):
        overlapped = _hvd_fit(inp, rec, world=2, overlap=True, rows=rows, epochs=2)
        single = _hvd_fit(inp, rec, world=1, overlap=False, rows=rows, epochs=2)
        with rec.span("candle.run_parallel_benchmark"):
            real = run_parallel_benchmark(
                bench, p1b1_plan(inp, 2, 1), data=inp["data"], seed=inp["seed"],
                local_size=2, train=TrainOptions(overlap=True),
            )
        model = compiled_model(bench, inp["seed"])
        grad_bytes = model.count_params() * 8
        with rec.span("comms.allreduce"):
            reduce_s = _allreduce_walls(grad_bytes, 6 if smoke else 30)
        with rec.span("mpi.p2p"):
            p2p_us = _p2p_roundtrip_us(200 if smoke else 2000)
        one_batch = inp["data"].x_train[: cfg["batch"]]
        forward = []
        for _ in range(10):
            with rec.span("nn.predict") as sp:
                model.predict(one_batch, batch_size=len(one_batch))
            forward.append(sp.duration)
        golden = _golden_steps(rec, bench, "p1b1_hvd_w2", cfg["batch"], inp["write_golden"])

    step = {k: statistics.median(v["step_s"][skip:]) for k, v in
            (("serial", serial), ("overlap", overlapped), ("single", single))}
    phases = real.phase_seconds()
    glue = real.wall_s - sum(phases.values())
    stats = overlapped["overlap"]
    out = {
        "candle.total_s": real.wall_s,
        "candle.glue_s": glue,
        "candle.unattributed_fraction": glue / real.wall_s,
        "nn.step_ms_p50": step["single"] * 1e3,
        "nn.step_ms_p95": _p(_ms(single["step_s"][skip:]), 95),
        "nn.forward_ms_p50": statistics.median(forward) * 1e3,
        "nn.bwd_update_ms_p50": (step["single"] - statistics.median(forward)) * 1e3,
        "mpi.bytes_sent_per_step": serial["per_step"]["bytes_sent"],
        "mpi.sends_per_step": serial["per_step"]["sends"],
        "mpi.allreduces_per_step": serial["per_step"]["allreduces"],
        "mpi.p2p_roundtrip_us_p50": p2p_us,
        "comms.allreduce_ms_p50": _p(_ms(reduce_s), 50),
        "comms.allreduce_ms_p95": _p(_ms(reduce_s), 95),
        "comms.allreduce_mb_per_s": grad_bytes / 1e6 / statistics.median(reduce_s),
        "comms.share_of_step": sum(serial["comm_s"][skip:]) / sum(serial["step_s"][skip:]),
        "hvd.bcast_ms": serial["bcast_s"] * 1e3,
        "hvd.allreduces_per_step": serial["allreduces_per_step"],
        "hvd.step_ms_p50": step["overlap"] * 1e3,
        "hvd.exposed_comm_ms_per_step": (step["serial"] - step["single"]) * 1e3,
        "hvd.scaling_eff_w2": step["single"] / step["overlap"],
        "overlap.hidden_fraction": stats.overlap_fraction,
        "overlap.comm_s": stats.comm_s,
        "overlap.wait_s": stats.wait_s,
        "overlap.buckets_per_step": stats.buckets / stats.steps,
        "overlap.gain_x": step["serial"] / step["overlap"],
    }
    out.update(golden)
    inp["traced_checks"] = {
        "variants_same_loss": serial["loss"] == overlapped["loss"],
    }
    return out


# ---------------------------------------------------------------------------
# serve_p1b2_open
# ---------------------------------------------------------------------------

def _batcher_costs(pool: np.ndarray, n: int) -> tuple[float, float]:
    """``DynamicBatcher.offer`` and ``poll`` driven directly: median
    microseconds per call with a full batch always ready."""
    options = ServeOptions(admission="reject", **{**SERVE_OPTIONS, "queue_depth": n + 1})
    batcher = DynamicBatcher(options)
    offer, poll = [], []
    for i in range(n):
        now = time.monotonic()
        request = Request(req_id=i, features=pool[i % len(pool)][None, :],
                          arrival_s=now, deadline_s=now + options.deadline_s)
        _, dt = timed(batcher.offer, request)
        offer.append(dt)
    while True:
        batch, dt = timed(batcher.poll)
        if batch is None:
            break
        poll.append(dt)
    return statistics.median(offer) * 1e6, statistics.median(poll) * 1e6


def _rpc_roundtrip(payload: np.ndarray, calls: int) -> list[float]:
    """``RpcChannel.call`` ping-pong carrying one max-size batch each way."""

    def worker(comm):
        rpc = RpcChannel(comm)
        if comm.rank == 0:
            walls = [timed(rpc.call, 1, "echo", payload)[1] for _ in range(calls)]
            rpc.post(1, "stop")
            return walls
        while True:
            msg = rpc.recv(0)
            if msg.kind == "stop":
                return None
            rpc.reply(0, msg, "echoed", msg.payload)

    return run_spmd(2, worker)[0]


def trace_serve(inp: dict, rec: SpanRecorder) -> dict:
    smoke = inp["sizes"].smoke
    out: dict = {}
    with rec.span("bench.workload"):
        for name, _, admission, _ in SERVE_PHASES:
            with rec.span(f"serve.serve_workload.{name}"):
                phase = serve_phase(inp, name, admission)
            for key in ("p50_ms", "p99_ms", "mean_batch_rows", "batches", "drain_s"):
                out[f"serve.{key}.{name}"] = phase[key]
        out["serve.rejected.sat"] = phase["rejected"]
    with rec.span("bench.micro"):
        pool = inp["pool"]
        payload = np.concatenate([pool] * (32 // len(pool) + 1))[:32]
        with rec.span("serve.batcher"):
            offer_us, poll_us = _batcher_costs(pool, 640 if smoke else 6400)
        with rec.span("ps.rpc"):
            rpc_s = _rpc_roundtrip(payload, 100 if smoke else 1000)
        with rec.span("mpi.p2p"):
            p2p_us = _p2p_roundtrip_us(200 if smoke else 2000)
        out.update(_predict_rates(rec, inp["reference"], pool))
        forward = rec.durations("nn.predict.b32")
    out.update({
        "serve.batcher_offer_us_p50": offer_us,
        "serve.batcher_poll_us_p50": poll_us,
        "ps.rpc_roundtrip_us_p50": statistics.median(rpc_s) * 1e6,
        "ps.rpc_mb_per_s": 2 * payload.nbytes / 1e6 / statistics.median(rpc_s),
        "mpi.p2p_roundtrip_us_p50": p2p_us,
        "nn.forward_ms_p50": statistics.median(forward) * 1e3,
    })
    return out


TRACERS: dict[str, Callable] = {
    "nt3_train": trace_nt3,
    "io_wide": trace_io,
    "p1b1_hvd_w2": trace_p1b1,
    "serve_p1b2_open": trace_serve,
}
