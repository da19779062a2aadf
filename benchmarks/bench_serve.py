"""Serving benchmark: dynamic batching and the open-load frontier.

Two sections, one JSON artifact:

- **batching** — the tentpole claim: dynamic batching vs single-request
  dispatch (``max_batch=1``) at the *same* latency deadline. Both arms
  are driven open-loop at one offered rate chosen above what the
  batched arm can serve, with ``admission="reject"``, so each arm's
  completed rows/s over the serving wall clock *is* its capacity and
  the ratio compares capacities (a closed loop of a few clients lets a
  faster server simply run out of demand). 40,000 qps is that rate
  here and not more: the generator is a thread of this process, and
  offered much above capacity it spends the interpreter lock refusing
  requests and both arms read lower. The batched config must also hold
  its p99 within the deadline.
- **frontier** — throughput vs latency under open (Poisson) load at
  increasing offered qps, the curve capacity planning reads.

Run standalone::

    python benchmarks/bench_serve.py --smoke                  # CI-sized
    python benchmarks/bench_serve.py --full                   # asserts
    python benchmarks/bench_serve.py --smoke --json OUT.json  # artifact

``--full`` additionally asserts the acceptance thresholds: batched
throughput >= 3x single-request at fixed p99 deadline and batched p99
within the deadline. Under pytest the smoke path runs as a test; the
full path is opt-in via ``SERVE_BENCH_FULL=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import pytest

from repro.nn import Sequential
from repro.nn.layers import Dense
from repro.serve import OpenWorkload, ServeOptions, poisson_arrivals, serve_workload
from repro.telemetry.report import format_table

#: serving model geometry: small enough that per-dispatch fixed cost
#: (event loop, RPC, python scatter) dominates row math — the regime
#: where batching pays, and the regime the CANDLE models are in on a
#: real accelerator (the paper's "not compute-intensive" finding)
FEATURES = 32

SMOKE = {
    "batching_qps": 40000.0, "batching_duration_s": 1.0,
    "frontier_qps": (50.0, 150.0, 400.0), "frontier_duration_s": 0.8,
}
FULL = {
    "batching_qps": 40000.0, "batching_duration_s": 1.5,
    "frontier_qps": (25.0, 75.0, 150.0, 300.0, 600.0),
    "frontier_duration_s": 1.5,
}


def build_model() -> Sequential:
    model = Sequential()
    model.add(Dense(64, activation="relu"))
    model.add(Dense(8))
    model.build((FEATURES,), seed=11)
    return model


def feature_pool(rows: int = 512) -> np.ndarray:
    return np.random.default_rng(3).normal(size=(rows, FEATURES))


def base_options() -> ServeOptions:
    return ServeOptions(
        max_batch=32,
        deadline_ms=300.0,
        queue_depth=512,
        replicas=2,
    )


# ---------------------------------------------------------------------------
# section 1: dynamic batching vs single-request dispatch
# ---------------------------------------------------------------------------

def run_batching(cfg: dict) -> dict:
    pool = feature_pool()
    ref = build_model()
    weights = {k: v.copy() for k, v in ref.named_parameters().items()}
    arrivals = poisson_arrivals(
        cfg["batching_qps"], cfg["batching_duration_s"], seed=13
    )
    workload = OpenWorkload(arrivals=arrivals, rows_per_request=1)
    batched = base_options().evolve(admission="reject")
    single = batched.evolve(max_batch=1)

    reports = {}
    for label, opts in (("batched", batched), ("single", single)):
        reports[label] = serve_workload(
            build_model, workload, pool, opts, initial_weights=weights
        )
        slo = reports[label].slo
        # conservation: refused or answered, every arrival exactly once
        assert slo.requests + slo.rejected == len(arrivals), (label, slo)
    b, s = reports["batched"].slo, reports["single"].slo
    return {
        "deadline_ms": batched.deadline_ms,
        "offered_qps": cfg["batching_qps"],
        "arrivals": int(len(arrivals)),
        "requests": b.requests,
        "batched_rejected": b.rejected,
        "single_rejected": s.rejected,
        "batched_rows_per_s": b.rows_per_s,
        "single_rows_per_s": s.rows_per_s,
        "speedup_vs_single": b.rows_per_s / s.rows_per_s if s.rows_per_s else 0.0,
        "batched_p99_ms": b.p99_ms,
        "single_p99_ms": s.p99_ms,
        "batched_meets_p99": b.meets_p99,
        "mean_batch_rows": reports["batched"].mean_batch_rows,
        "single_mean_batch_rows": reports["single"].mean_batch_rows,
    }


# ---------------------------------------------------------------------------
# section 2: throughput-vs-latency frontier
# ---------------------------------------------------------------------------

def run_frontier(cfg: dict) -> dict:
    pool = feature_pool()
    ref = build_model()
    weights = {k: v.copy() for k, v in ref.named_parameters().items()}
    opts = base_options()
    rows = []
    for i, qps in enumerate(cfg["frontier_qps"]):
        arrivals = poisson_arrivals(qps, cfg["frontier_duration_s"], seed=20 + i)
        workload = OpenWorkload(arrivals=arrivals, rows_per_request=1)
        report = serve_workload(
            build_model, workload, pool, opts, initial_weights=weights
        )
        slo = report.slo
        rows.append({
            "offered_qps": qps,
            "completed_rps": slo.throughput_rps,
            "p50_ms": slo.p50_ms,
            "p99_ms": slo.p99_ms,
            "mean_batch_rows": report.mean_batch_rows,
        })
    return {"rows": rows}


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def assert_full_criteria(report: dict) -> None:
    b = report["batching"]
    assert b["speedup_vs_single"] >= 3.0, (
        f"dynamic batching speedup {b['speedup_vs_single']:.2f} < 3.0"
    )
    assert b["batched_meets_p99"], (
        f"batched p99 {b['batched_p99_ms']:.1f}ms blows the "
        f"{b['deadline_ms']}ms deadline"
    )


def run_bench(full: bool = False, json_path: str | None = None) -> dict:
    cfg = FULL if full else SMOKE
    report = {
        "mode": "full" if full else "smoke",
        "batching": run_batching(cfg),
        "frontier": run_frontier(cfg),
    }
    report["slo"] = {
        "p50_ms": report["frontier"]["rows"][0]["p50_ms"],
        "p99_ms": report["frontier"]["rows"][0]["p99_ms"],
        "throughput_rps": report["frontier"]["rows"][0]["completed_rps"],
    }

    b = report["batching"]
    print(format_table(report["frontier"]["rows"], title="frontier: open load sweep"))
    print(
        f"batching headline: {b['speedup_vs_single']:.2f}x rows/s vs "
        f"single-request ({b['batched_rows_per_s']:.0f} vs "
        f"{b['single_rows_per_s']:.0f} rows/s of {b['offered_qps']:.0f} "
        f"offered) at a fixed {b['deadline_ms']:.0f}ms deadline "
        f"(batched p99 {b['batched_p99_ms']:.1f}ms, "
        f"mean batch {b['mean_batch_rows']:.1f} rows)"
    )
    assert b["speedup_vs_single"] >= 1.5, b
    if full:
        assert_full_criteria(report)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2, default=_json_scalar)
        print(f"wrote {json_path}")
    return report


def _json_scalar(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# -- pytest entry points ----------------------------------------------------

def test_smoke_serve_invariants(capsys):
    with capsys.disabled():
        print()
        run_bench(full=False)


@pytest.mark.skipif(
    os.environ.get("SERVE_BENCH_FULL") != "1",
    reason="full serve bench needs SERVE_BENCH_FULL=1",
)
def test_full_serve_criteria(capsys):
    with capsys.disabled():
        print()
        run_bench(full=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true", help="CI-sized load, invariant checks only")
    group.add_argument("--full", action="store_true", help="longer load + acceptance asserts")
    parser.add_argument("--json", metavar="PATH", help="write the report as JSON")
    args = parser.parse_args(argv)
    run_bench(full=args.full, json_path=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
