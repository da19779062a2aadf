"""Horovod timeline tracing → chrome://tracing (paper Figs 7b, 12, 19).

Runs NT3 functionally on 4 ranks with injected data-loading skew, dumps
the Chrome trace JSON, and prints the broadcast-overhead analysis that
Figs 7b/12 perform — then does the same for a simulated 384-GPU run
with and without the optimized loader.

Run:  python examples/timeline_tracing.py [output.json]
"""

import sys

from repro.analysis import broadcast_overhead_seconds, communication_summary
from repro.candle import get_benchmark
from repro.candle.nt3 import NT3_SPEC
from repro.cluster import IoSkewModel
from repro.core import run_parallel_benchmark, strong_scaling_plan
from repro.sim import ScaledRunSimulator
from repro.telemetry import dump_chrome_trace
from repro.telemetry.report import format_table


def functional_trace(out_path: str) -> None:
    bench = get_benchmark("nt3", scale=0.005, sample_scale=0.2)
    plan = strong_scaling_plan(bench.spec, 4, total_epochs=8)
    res = run_parallel_benchmark(
        bench, plan, seed=1, io_skew=IoSkewModel(cv=0.4), skew_scale_s=1.0
    )
    dump_chrome_trace(res.tracer, out_path)
    print(f"wrote {len(res.tracer)} spans to {out_path} "
          "(open in chrome://tracing)")
    summary = communication_summary(res.tracer)
    rows = [
        {"event": name, "total_s": round(summary.get(f"{name}_s", 0.0), 3),
         "count": int(summary.get(f"{name}_n", 0))}
        for name in ("negotiate_broadcast", "mpi_broadcast",
                     "negotiate_allreduce", "nccl_allreduce")
    ]
    print(format_table(rows, title="functional run, 4 ranks with injected skew"))


def simulated_384() -> None:
    sim = ScaledRunSimulator("summit")
    plan = strong_scaling_plan(NT3_SPEC, 384)
    rows = []
    for method in ("original", "chunked"):
        report = sim.run(NT3_SPEC, plan, method=method)
        rows.append(
            {"method": method,
             "broadcast_overhead_s": round(
                 broadcast_overhead_seconds(report.tracer), 2)}
        )
    print(format_table(rows, title="simulated 384-GPU broadcast overhead"))
    print("paper: 43.72 s original -> 4.65 s optimized (89.36% less)")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "horovod_timeline.json"
    functional_trace(out)
    print()
    simulated_384()
