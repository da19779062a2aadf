"""Microbenchmark: tracer overhead on an NT3-shaped training run.

Times ``train_on_batch`` on the NT3 conv stack twice — untraced, then
with every step wrapped in a :class:`repro.telemetry.Tracer` span plus a
step counter (the instrumentation density the wired pipeline actually
uses) — and reports the relative overhead. The telemetry subsystem is
an observability layer for a performance study; it must not perturb the
quantity it measures, so the full mode asserts the traced step stays
within **2%** of the untraced step.

Also reported:

- **span cost** — nanoseconds per open/close of an empty span, the
  primitive everything else is built from;
- **export cost** — seconds to serialize the run's spans to a Chrome
  trace (off the hot path, for scale only).

A real traced NT3 run (load/train/eval through
:func:`repro.candle.pipeline.run_benchmark`) is exported as a sample
artifact set via ``--trace-dir`` so CI can publish a Chrome trace next
to the numbers.

Run standalone::

    python benchmarks/bench_telemetry.py --smoke    # CI-sized, report only
    python benchmarks/bench_telemetry.py --full     # asserts overhead < 2%
    python benchmarks/bench_telemetry.py --smoke --json BENCH_telemetry.json \
        --trace-dir trace_artifacts

Under pytest the smoke path always runs; the full path is opt-in via
``TELEMETRY_BENCH_FULL=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.candle.pipeline import run_benchmark
from repro.telemetry import Tracer, export_run, profile_from_spans
from repro.telemetry.report import format_table

#: NT3 geometry at two sizes (features = 60483 * scale)
SMOKE_SHAPE = dict(scale=0.01, sample_scale=0.05)   # 604 features
FULL_SHAPE = dict(scale=0.05, sample_scale=0.05)    # 3024 features

BATCH = 20  # NT3's Table-1 batch size

MAX_OVERHEAD = 0.02  # traced step must stay within 2% of untraced

#: modeled per-phase draw (W) for the sample artifact's energy columns
PHASE_POWER_W = {"load": 60.0, "train": 250.0, "eval": 200.0}


def _data(features: int, n: int = BATCH, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, features, 1))
    y = np.eye(2)[rng.integers(0, 2, size=n)]
    return x, y


def _compiled(bench, seed: int = 1):
    model = bench.build_model(seed=seed)
    model.compile("sgd", "categorical_crossentropy", lr=0.001)
    return model


def time_steps(bench, steps: int, repeats: int, tracer: Tracer | None):
    """Median seconds per ``train_on_batch`` across ``repeats`` passes.

    With a tracer, each step runs inside a span carrying a step attr and
    bumps a counter — matching the per-op density of the wired hvd path.
    """
    model = _compiled(bench)
    x, y = _data(bench.features)
    for _ in range(2):
        model.train_on_batch(x, y)  # warm caches and scratch buffers
    per_pass = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        if tracer is None:
            for _ in range(steps):
                model.train_on_batch(x, y)
        else:
            for i in range(steps):
                with tracer.span("train_step", category="train", step=i):
                    model.train_on_batch(x, y)
                tracer.counter("steps")
        per_pass.append((time.perf_counter() - t0) / steps)
    return float(np.median(per_pass))


def span_cost_ns(n: int = 20_000) -> float:
    """Nanoseconds per open/close of an empty span."""
    tracer = Tracer(run_id="span-cost")
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t0) / n * 1e9


def export_sample_run(trace_dir: str) -> dict:
    """Run a traced NT3 pipeline and export the artifact set."""
    bench = get_benchmark("nt3", **SMOKE_SHAPE)
    report = run_benchmark(bench, epochs=1, seed=0, validation=False)
    tracer = report.tracer
    profile = profile_from_spans(tracer, PHASE_POWER_W, rank=0)
    tracer.bind_power(profile, mode="exact")
    arts = export_run(tracer, trace_dir, prefix="nt3")
    return {
        "chrome_trace": arts.chrome_trace,
        "metrics_jsonl": arts.metrics_jsonl,
        "summary_txt": arts.summary_txt,
        "spans": len(tracer),
        "energy_j": round(profile.exact_energy_j(), 3),
    }


def run_bench(full: bool = False, json_path: str | None = None,
              trace_dir: str | None = None) -> dict:
    shape = FULL_SHAPE if full else SMOKE_SHAPE
    steps = 20 if full else 4
    repeats = 5 if full else 3
    bench = get_benchmark("nt3", **shape)

    untraced_s = time_steps(bench, steps, repeats, tracer=None)
    tracer = Tracer(run_id="overhead")
    traced_s = time_steps(bench, steps, repeats, tracer=tracer)
    overhead = traced_s / untraced_s - 1.0
    cost_ns = span_cost_ns()

    t0 = time.perf_counter()
    from repro.telemetry import to_chrome_trace

    to_chrome_trace(tracer)
    export_s = time.perf_counter() - t0

    rows = [
        {"config": "untraced", "ms_per_step": round(untraced_s * 1e3, 3)},
        {"config": "traced (span + counter)", "ms_per_step": round(traced_s * 1e3, 3)},
    ]
    print(format_table(rows, title=f"NT3 train step, {bench.features} features, batch {BATCH}"))
    print(f"tracer overhead: {overhead * 100:+.3f}% of step time "
          f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    print(f"span open/close: {cost_ns:.0f} ns; chrome export of "
          f"{len(tracer)} spans: {export_s * 1e3:.2f} ms")

    result = {
        "features": bench.features,
        "batch": BATCH,
        "steps_timed": steps,
        "repeats": repeats,
        "untraced_ms_per_step": untraced_s * 1e3,
        "traced_ms_per_step": traced_s * 1e3,
        "overhead_fraction": overhead,
        "overhead_budget": MAX_OVERHEAD,
        "span_cost_ns": cost_ns,
        "chrome_export_s": export_s,
        "mode": "full" if full else "smoke",
    }
    if trace_dir:
        result["sample_artifacts"] = export_sample_run(trace_dir)
        print(f"sample trace artifacts in {trace_dir}")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {json_path}")

    if full:
        assert overhead < MAX_OVERHEAD, (
            f"tracing adds {overhead * 100:.2f}% per step "
            f"(budget {MAX_OVERHEAD * 100:.0f}%)"
        )
    return result


# -- pytest entry points ----------------------------------------------------

def test_smoke_telemetry_overhead(capsys, tmp_path):
    with capsys.disabled():
        print()
        result = run_bench(full=False, trace_dir=str(tmp_path))
    assert result["span_cost_ns"] < 1e6  # a span is not milliseconds
    assert os.path.exists(result["sample_artifacts"]["chrome_trace"])


@pytest.mark.skipif(
    os.environ.get("TELEMETRY_BENCH_FULL") != "1",
    reason="full telemetry bench needs TELEMETRY_BENCH_FULL=1",
)
def test_full_telemetry_overhead(capsys):
    with capsys.disabled():
        print()
        run_bench(full=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true", help="CI-sized, report only")
    group.add_argument("--full", action="store_true", help="NT3 at 3024 features, asserts overhead < 2%")
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="export a sample traced-run artifact set here")
    args = parser.parse_args(argv)
    run_bench(full=args.full, json_path=args.json, trace_dir=args.trace_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
