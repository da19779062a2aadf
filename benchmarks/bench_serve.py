"""Serving benchmark: dynamic batching, SLO frontier, hot-swap identity.

Four sections, one JSON artifact:

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
  increasing offered qps, the curve capacity planning reads, plus the
  :class:`repro.sim.ServeModel` analytic frontier for the same options
  on modeled Summit.
- **traces** — the admission policies under hostile arrival shapes: a
  flash-crowd burst against ``reject`` and ``shed_oldest``, a diurnal
  trace against ``block`` — shed/rejected counts per policy.
- **hot_swap** — a model-version swap mid-run under open load, with
  every response retained: the batch dispatch log is replayed offline
  against reference models of each version and every served prediction
  must be *bitwise identical* to its version's reference output.

Run standalone::

    python benchmarks/bench_serve.py --smoke                  # CI-sized
    python benchmarks/bench_serve.py --full                   # asserts
    python benchmarks/bench_serve.py --smoke --json OUT.json  # artifact

``--full`` additionally asserts the acceptance thresholds: batched
throughput >= 3x single-request at fixed p99 deadline, batched p99
within the deadline, hot-swap bit-identity, and a >= 3x modeled
batching speedup on Summit NT3. Under pytest the smoke path runs as a
test; the full path is opt-in via ``SERVE_BENCH_FULL=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.cluster.machine import SUMMIT
from repro.nn import Sequential, get_optimizer
from repro.nn.layers import Dense
from repro.nn.serialization import load_weights_dict
from repro.resilience import CheckpointManager
from repro.serve import (
    OpenWorkload,
    ServeOptions,
    SwapPlan,
    burst_arrivals,
    diurnal_arrivals,
    install_weights,
    poisson_arrivals,
    request_features,
    serve_workload,
)
from repro.sim import ServeModel
from repro.telemetry.report import format_table

#: serving model geometry: small enough that per-dispatch fixed cost
#: (event loop, RPC, python scatter) dominates row math — the regime
#: where batching pays, and the regime the CANDLE models are in on a
#: real accelerator (the paper's "not compute-intensive" finding)
FEATURES = 32

SMOKE = {
    "batching_qps": 40000.0, "batching_duration_s": 1.0,
    "frontier_qps": (50.0, 150.0, 400.0), "frontier_duration_s": 0.8,
    "swap_qps": 120.0, "swap_duration_s": 1.2,
}
FULL = {
    "batching_qps": 40000.0, "batching_duration_s": 1.5,
    "frontier_qps": (25.0, 75.0, 150.0, 300.0, 600.0),
    "frontier_duration_s": 1.5,
    "swap_qps": 150.0, "swap_duration_s": 2.5,
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
        worker_depth=2,
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
# section 2: throughput-vs-latency frontier (functional + modeled)
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
    spec = get_benchmark("nt3").spec
    model = ServeModel(SUMMIT)
    sim_opts = ServeOptions(max_batch=64, deadline_ms=1000.0, replicas=2,
                            assemble_fraction=0.2)
    sim_rows = [p.as_dict() for p in model.frontier(spec, sim_opts)]
    return {
        "rows": rows,
        "sim": {
            "machine": "summit",
            "benchmark": spec.name,
            "rows": sim_rows,
            "max_qps_within_deadline": model.max_qps_within(spec, sim_opts),
            "speedup_modeled": model.batching_speedup(spec, sim_opts),
        },
    }


# ---------------------------------------------------------------------------
# section 3: admission policies under burst / diurnal traces
# ---------------------------------------------------------------------------

def run_traces(cfg: dict) -> dict:
    pool = feature_pool()
    ref = build_model()
    weights = {k: v.copy() for k, v in ref.named_parameters().items()}
    duration = cfg["frontier_duration_s"]
    burst = burst_arrivals(
        base_qps=60.0, duration_s=duration, burst_qps=600.0,
        burst_start_s=duration * 0.3, burst_len_s=duration * 0.2, seed=7,
    )
    diurnal = diurnal_arrivals(
        base_qps=80.0, duration_s=duration, amplitude=0.6, seed=9
    )
    # a deliberately shallow queue so the burst actually hits the policy
    tight = base_options().evolve(queue_depth=16)
    out = {}
    for label, admission, arrivals in (
        ("burst_reject", "reject", burst),
        ("burst_shed", "shed_oldest", burst),
        ("diurnal_block", "block", diurnal),
    ):
        workload = OpenWorkload(arrivals=arrivals, rows_per_request=1)
        report = serve_workload(
            build_model, workload, pool, tight.evolve(admission=admission),
            initial_weights=weights,
        )
        slo = report.slo
        out[label] = {
            "arrivals": int(len(arrivals)),
            "completed": slo.requests,
            "rejected": slo.rejected,
            "shed": slo.shed,
            "p99_ms": slo.p99_ms,
        }
    # conservation: every arrival is answered exactly once
    for label, row in out.items():
        assert row["completed"] + row["rejected"] + row["shed"] == row["arrivals"], (
            label, row,
        )
    return out


# ---------------------------------------------------------------------------
# section 4: hot-swap under load, bitwise identity per version
# ---------------------------------------------------------------------------

def run_hot_swap(cfg: dict) -> dict:
    pool = feature_pool()
    ref = build_model()
    ref.compile(get_optimizer("sgd", lr=0.01), "mse")
    w0 = {k: v.copy() for k, v in ref.named_parameters().items()}
    rng = np.random.default_rng(17)
    perturbed = {k: v + rng.normal(scale=0.1, size=v.shape) for k, v in w0.items()}

    # the v1 weights travel the real resilience path: checkpointed to
    # disk, resolved by epoch with digest verification, read back
    # model-free — exactly what a production swap would ship
    with tempfile.TemporaryDirectory() as ckpt_dir:
        manager = CheckpointManager(ckpt_dir, keep_last=2)
        install_weights(ref, perturbed)
        manager.save(ref, epoch=1)
        info = manager.resolve(epoch=1)
        w1, meta = load_weights_dict(info.path, expected_sha256=info.sha256)
    assert meta["epoch"] == 1
    assert all(np.array_equal(w1[k], perturbed[k]) for k in perturbed)

    arrivals = poisson_arrivals(cfg["swap_qps"], cfg["swap_duration_s"], seed=31)
    workload = OpenWorkload(arrivals=arrivals, rows_per_request=2)
    report = serve_workload(
        build_model,
        workload,
        pool,
        base_options(),
        initial_weights=w0,
        swaps=[SwapPlan(version="v1", weights=w1, after_requests=len(arrivals) // 3)],
        keep_responses=True,
    )
    # offline replay: rebuild every dispatched batch bit-for-bit and
    # compare each served prediction against its version's reference
    versions = {"v0": w0, "v1": w1}
    identical = True
    checked = 0
    for version, req_ids in report.batch_log:
        install_weights(ref, versions[version])
        feats = np.concatenate(
            [request_features(pool, rid, 2) for rid in req_ids], axis=0
        )
        expected = ref._forward(feats, training=False)
        start = 0
        for rid in req_ids:
            got_version, got = report.responses[rid]
            if got_version != version or not np.array_equal(
                got, expected[start : start + 2]
            ):
                identical = False
            checked += 1
            start += 2
    per_version = {
        v: sum(1 for ver, _ in report.responses.values() if ver == v)
        for v in versions
    }
    return {
        "bit_identical": identical,
        "swaps": report.swaps,
        "versions": report.versions,
        "responses_checked": checked,
        "responses_per_version": per_version,
        "p99_ms": report.slo.p99_ms,
        "served_during_both_versions": all(n > 0 for n in per_version.values()),
    }


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
    assert report["hot_swap"]["bit_identical"]
    assert report["hot_swap"]["served_during_both_versions"]
    assert report["frontier"]["sim"]["speedup_modeled"] >= 3.0


def run_bench(full: bool = False, json_path: str | None = None) -> dict:
    cfg = FULL if full else SMOKE
    report = {
        "mode": "full" if full else "smoke",
        "batching": run_batching(cfg),
        "frontier": run_frontier(cfg),
        "traces": run_traces(cfg),
        "hot_swap": run_hot_swap(cfg),
    }
    report["slo"] = {
        "p50_ms": report["frontier"]["rows"][0]["p50_ms"],
        "p99_ms": report["frontier"]["rows"][0]["p99_ms"],
        "throughput_rps": report["frontier"]["rows"][0]["completed_rps"],
    }

    b = report["batching"]
    print(format_table(report["frontier"]["rows"], title="frontier: open load sweep"))
    print(format_table(
        [{"policy": k, **v} for k, v in report["traces"].items()],
        title="traces: admission under burst/diurnal",
    ))
    print(
        f"batching headline: {b['speedup_vs_single']:.2f}x rows/s vs "
        f"single-request ({b['batched_rows_per_s']:.0f} vs "
        f"{b['single_rows_per_s']:.0f} rows/s of {b['offered_qps']:.0f} "
        f"offered) at a fixed {b['deadline_ms']:.0f}ms deadline "
        f"(batched p99 {b['batched_p99_ms']:.1f}ms, "
        f"mean batch {b['mean_batch_rows']:.1f} rows)"
    )
    hs = report["hot_swap"]
    print(
        f"hot-swap headline: {hs['swaps']} swap(s), "
        f"{hs['responses_checked']} responses replayed, "
        f"bit_identical={hs['bit_identical']}, "
        f"per-version={hs['responses_per_version']}"
    )
    sim = report["frontier"]["sim"]
    print(
        f"modeled (summit/nt3): max {sim['max_qps_within_deadline']:.0f} qps "
        f"within deadline, batching speedup {sim['speedup_modeled']:.1f}x"
    )

    assert report["hot_swap"]["bit_identical"], report["hot_swap"]
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
