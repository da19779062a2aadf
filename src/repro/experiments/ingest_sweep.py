"""Ingest-method sweep: the §5 comparison extended past the paper.

The paper compares ``original`` vs ``chunked`` (vs ``dask``) and stops.
:mod:`repro.ingest` adds three more engines — span-parallel decode, the
binary column-store cache, and per-rank row sharding — and this
experiment sweeps all of them through the calibrated NT3-on-Summit
simulation: per-rank load seconds, total runtime, and how much of the
paper's broadcast skew each mode removes at 384 GPUs.

With ``fast=False`` a functional panel parses real generated files with
every registered method and asserts the frames agree.
"""

from __future__ import annotations

import os
import tempfile
from typing import Sequence

import numpy as np

from repro.candle.base import BenchmarkSpec
from repro.candle.registry import get_benchmark
from repro.experiments import common
from repro.experiments.base import ExperimentResult
from repro.ingest import DataSource, LoaderConfig
from repro.sim.iomodel import LOAD_METHODS

#: every modeled method, original first (the speedup baseline)
SWEEP_METHODS = LOAD_METHODS


def ingest_method_rows(spec: BenchmarkSpec, counts: Sequence[int]) -> list[dict]:
    """Per-GPU-count load/total seconds on Summit for each swept method."""
    rows = []
    for n in counts:
        runs = {
            m: common.sim_sweep(spec, "summit", [n], method=m)[0]
            for m in SWEEP_METHODS
        }
        base = runs[SWEEP_METHODS[0]]
        row: dict = {"gpus": n}
        for m, rep in runs.items():
            row[f"{m}_load_s"] = round(rep.load_s, 2)
            row[f"{m}_total_s"] = round(rep.total_s, 2)
        row["best_method"] = min(SWEEP_METHODS, key=lambda m: runs[m].total_s)
        row["best_speedup"] = round(base.total_s / runs[row["best_method"]].total_s, 2)
        rows.append(row)
    return rows


def skew_rows(counts=(48, 96, 192, 384)) -> list[dict]:
    """Broadcast-overhead seconds by method and GPU count (Fig 12 shape)."""
    spec = get_benchmark("nt3").spec
    rows = []
    for n in counts:
        row: dict = {"gpus": n}
        for method in SWEEP_METHODS:
            rep = common.sim_sweep(spec, "summit", [n], method=method)[0]
            row[f"{method}_bcast_s"] = round(rep.broadcast_overhead_s, 2)
        rows.append(row)
    return rows


def functional_rows(scale: float = 0.02, seed: int = 0) -> list[dict]:
    """Actually run every registered method on a generated NT3-shaped file."""
    bench = get_benchmark("nt3", scale=scale, sample_scale=0.1)
    rows = []
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        train, _ = bench.write_files(tmp, rng=rng)
        cache_dir = os.path.join(tmp, "cache")
        ref = None
        for method in DataSource(train).methods():
            config = LoaderConfig(method=method, cache_dir=cache_dir)
            if method == "sharded":
                config = config.with_shard(0, 1)
            result = DataSource(train).load(config)
            if ref is None:
                ref = result.frame
            rows.append(
                {
                    "method": method,
                    "seconds": round(result.seconds, 3),
                    "rows": result.rows,
                    "identical": result.frame.equals(ref),
                }
            )
        # second cached load: the hit path (no text parse at all)
        hit = DataSource(train).load(
            LoaderConfig(method="cached", cache_dir=cache_dir)
        )
        rows.append(
            {
                "method": "cached (hit)",
                "seconds": round(hit.seconds, 3),
                "rows": hit.rows,
                "identical": hit.frame.equals(ref),
            }
        )
    return rows


def run(fast: bool = True) -> ExperimentResult:
    spec = get_benchmark("nt3").spec
    counts = (1, 6, 48, 384) if fast else (1, 6, 12, 24, 48, 96, 192, 384)
    panels = {
        "load/total seconds by method (model, Summit)": ingest_method_rows(spec, counts),
        "broadcast overhead by method": skew_rows(
            counts=(48, 384) if fast else (48, 96, 192, 384)
        ),
    }
    if not fast:
        panels["functional (reduced scale)"] = functional_rows()
    model = panels["load/total seconds by method (model, Summit)"]
    at_max = model[-1]
    measured = {
        "chunked speedup at max GPUs": round(
            at_max["original_total_s"] / at_max["chunked_total_s"], 2
        ),
        "best-method speedup at max GPUs": at_max["best_speedup"],
    }
    return ExperimentResult(
        experiment_id="ingest",
        title="Data-ingest methods beyond the paper: parallel, cached, sharded",
        panels=panels,
        paper_claims={},
        measured=measured,
        notes=(
            "The paper's chunked fix is the baseline; span-parallel decode, "
            "the binary column-store cache, and per-rank sharding stack "
            "further load-time and broadcast-skew reductions on top."
        ),
    )
