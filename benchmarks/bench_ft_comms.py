"""Microbenchmark: what fault tolerance costs, and what it buys.

Two measurements on a simulated two-node pair (12 ranks, 6 per node —
the paper's smallest multi-node configuration):

- **Fault-free overhead** — the same hierarchical allreduce alternated
  call-by-call through the PR 5
  :class:`~repro.comms.engine.CollectiveEngine` (raw communicator) and
  the :class:`~repro.comms.ft.engine.FaultTolerantEngine` (heartbeats +
  sequenced envelopes + completion fence), barrier-synchronized so the
  paired per-call ratio cancels host noise. The full mode asserts the
  FT path stays within **5%** per call; the numerics must be
  bit-identical either way.
- **Recovery latency** — a rank is killed mid-collective; the
  survivors detect, rebuild, and re-execute. The measured recovery
  time is compared against the checkpoint-restore path it replaces
  (modeled scheduler restart + NT3 checkpoint restore on SUMMIT), and
  the survivors' result is asserted bitwise identical to a fresh flat
  allreduce over the surviving inputs.

Run standalone::

    python benchmarks/bench_ft_comms.py --smoke   # CI-sized, report only
    python benchmarks/bench_ft_comms.py --full    # asserts the 5% gate
    python benchmarks/bench_ft_comms.py --smoke --json BENCH_ft_comms.json

Under pytest the smoke path always runs; the full path is opt-in via
``FT_COMMS_BENCH_FULL=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pytest

from repro.candle.nt3 import NT3_SPEC
from repro.cluster.machine import SUMMIT
from repro.comms import CollectiveEngine, CollectiveOptions
from repro.comms.ft import FaultToleranceOptions
from repro.comms.ft.engine import FaultTolerantEngine
from repro.mpi import run_spmd
from repro.mpi.communicator import canonical_reduce
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.sim.faultmodel import FailureModel, checkpoint_write_seconds
from repro.telemetry.report import format_table

#: the paper's smallest multi-node shape: 2 nodes x 6 GPUs
WORLD, LOCAL = 12, 6

MAX_OVERHEAD = 0.05  # FT fault-free cost budget vs the PR 5 engine

#: iters = raw/FT pairs per SPMD run; repeats = runs whose pairs pool
SMOKE = dict(elements=64 * 1024, iters=6, repeats=2)     # 512 KB / rank
#: full mode reduces a 16 MB fused-gradient bucket — the scale the FT
#: layer protects in training (Horovod's default fusion buffer is
#: 64 MB; NT3's full gradient is ~620 MB/rank); per-message bookkeeping
#: amortizes against real payload work here, where at toy sizes it
#: would dominate the measurement
FULL = dict(elements=2 * 1024 * 1024, iters=10, repeats=3)  # 16 MB / rank

#: the production defaults are what the overhead gate is about
FTO = FaultToleranceOptions()

#: fast detection so the kill benchmark measures recovery, not timeouts
FTO_RECOVERY = FaultToleranceOptions(
    heartbeat_interval_s=0.005,
    chunk_deadline_s=0.1,
    retry_base_delay_s=0.001,
)


def _input(rank: int, elements: int) -> np.ndarray:
    return np.random.default_rng(900 + rank).standard_normal(elements)


def _paired_run(elements: int, iters: int):
    """One SPMD run alternating raw/FT allreduces, barrier-synchronized.

    Pairing measures both engines under the same host conditions
    (scheduler phase, caches, background load), and the barrier before
    each timed call stops either engine's inter-rank skew from being
    billed to the other. Returns the per-pair slowest-rank times
    ``(raw_s, ft_s)`` lists; numerics are asserted bit-identical.
    """
    opts = CollectiveOptions(algorithm="hierarchical", fault_tolerance=FTO)

    def worker(comm):
        raw = CollectiveEngine(comm, opts)
        ft = FaultTolerantEngine(comm, opts)
        data = _input(comm.rank, elements)
        out_r = raw.allreduce(data, name="warm_raw")  # warm paths/threads
        out_f = ft.allreduce(data, name="warm_ft")
        raws, fts = [], []
        for i in range(iters):
            comm.barrier()
            t0 = time.perf_counter()
            out_r = raw.allreduce(data, name=f"r{i}")
            raws.append(time.perf_counter() - t0)
            comm.barrier()
            t0 = time.perf_counter()
            out_f = ft.allreduce(data, name=f"f{i}")
            fts.append(time.perf_counter() - t0)
        ft.close()
        return raws, fts, out_r, out_f

    expect = canonical_reduce(
        [_input(r, elements) for r in range(WORLD)], "mean"
    )
    results = run_spmd(WORLD, worker, local_size=LOCAL)
    for raws, fts, out_r, out_f in results:
        assert np.array_equal(out_r, expect), "raw allreduce numerics drifted"
        assert np.array_equal(out_f, expect), "FT allreduce numerics drifted"
    raw_s = [max(res[0][i] for res in results) for i in range(len(results[0][0]))]
    ft_s = [max(res[1][i] for res in results) for i in range(len(results[0][1]))]
    return raw_s, ft_s


def measure_overhead(shape: dict) -> dict:
    # pool the per-pair ratios across runs; the median of the pooled
    # paired ratios is robust to the +-10% per-call scheduler noise an
    # oversubscribed single host shows in any unpaired design
    raws, fts = [], []
    for _ in range(shape["repeats"]):
        r, f = _paired_run(shape["elements"], shape["iters"])
        raws.extend(r)
        fts.extend(f)
    ratios = np.array(fts) / np.array(raws)
    return {
        "raw_ms_per_call": float(np.median(raws)) * 1e3,
        "ft_ms_per_call": float(np.median(fts)) * 1e3,
        "pairs": len(ratios),
        "overhead_fraction": float(np.median(ratios)) - 1.0,
    }


def measure_recovery(shape: dict) -> dict:
    """Kill a rank mid-collective; time detection + rebuild + redo."""
    opts = CollectiveOptions(
        algorithm="hierarchical", fault_tolerance=FTO_RECOVERY
    )
    victim = 7
    plan = FaultPlan.single_message_fault("rank_kill", rank=victim, message=1)
    collect = {}

    def worker(comm):
        engine = FaultTolerantEngine(comm, opts)
        data = _input(comm.rank, shape["elements"])
        try:
            out = engine.allreduce(data, name="g")
        finally:
            engine.close()
        collect[comm.rank] = (out, engine.last_recovery, engine.rebuilds)
        return comm.rank

    results = run_spmd(
        WORLD, worker, local_size=LOCAL, fault_injector=FaultInjector(plan)
    )
    assert results[victim] is None
    survivors = [r for r in range(WORLD) if r != victim]
    expect = canonical_reduce(
        [_input(r, shape["elements"]) for r in survivors], "mean"
    )
    recoveries, rebuild_s = [], []
    for rank in survivors:
        out, recovery, rebuilds = collect[rank]
        assert np.array_equal(out, expect), (
            "survivor result differs from flat allreduce over survivors"
        )
        assert recovery is not None and len(rebuilds) == 1
        recoveries.append(recovery["recovery_s"])
        rebuild_s.append(rebuilds[0].elapsed_s)
    # the path this replaces: scheduler restart + checkpoint restore
    fm = FailureModel(mtbf_rank_s=7 * 24 * 3600.0)
    restore_s = fm.restart_s + checkpoint_write_seconds(NT3_SPEC, SUMMIT)
    return {
        "recovery_s_max": max(recoveries),
        "recovery_s_median": float(np.median(recoveries)),
        "rebuild_s_median": float(np.median(rebuild_s)),
        "checkpoint_restore_s": restore_s,
        "speedup_vs_restore": restore_s / max(recoveries),
    }


def run_bench(full: bool = False, json_path: str | None = None) -> dict:
    shape = FULL if full else SMOKE
    overhead = measure_overhead(shape)
    recovery = measure_recovery(shape)

    rows = [
        {"engine": "CollectiveEngine (PR 5)",
         "ms_per_allreduce": round(overhead["raw_ms_per_call"], 3)},
        {"engine": "FaultTolerantEngine",
         "ms_per_allreduce": round(overhead["ft_ms_per_call"], 3)},
    ]
    print(format_table(
        rows,
        title=(f"hierarchical allreduce, {WORLD} ranks ({LOCAL}/node), "
               f"{shape['elements'] * 8 // 1024} KB/rank"),
    ))
    print(f"fault-free FT overhead: {overhead['overhead_fraction'] * 100:+.2f}% "
          f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    print(f"mid-collective rank kill: detected+rebuilt+redone in "
          f"{recovery['recovery_s_max'] * 1e3:.1f} ms "
          f"(rebuild consensus {recovery['rebuild_s_median'] * 1e3:.1f} ms); "
          f"checkpoint-restore path: {recovery['checkpoint_restore_s']:.1f} s "
          f"({recovery['speedup_vs_restore']:.0f}x slower)")

    result = {
        "world": WORLD,
        "local_size": LOCAL,
        "elements": shape["elements"],
        "iters": shape["iters"],
        "repeats": shape["repeats"],
        "overhead_budget": MAX_OVERHEAD,
        "mode": "full" if full else "smoke",
        **overhead,
        **recovery,
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {json_path}")

    assert result["recovery_s_max"] < result["checkpoint_restore_s"], (
        "elastic recovery slower than the checkpoint-restore it replaces"
    )
    if full:
        assert result["overhead_fraction"] < MAX_OVERHEAD, (
            f"FT adds {result['overhead_fraction'] * 100:.2f}% per allreduce "
            f"(budget {MAX_OVERHEAD * 100:.0f}%)"
        )
    return result


# -- pytest entry points ----------------------------------------------------

def test_smoke_ft_comms(capsys):
    with capsys.disabled():
        print()
        result = run_bench(full=False)
    assert result["recovery_s_max"] < result["checkpoint_restore_s"]


@pytest.mark.skipif(
    os.environ.get("FT_COMMS_BENCH_FULL") != "1",
    reason="full FT comms bench needs FT_COMMS_BENCH_FULL=1",
)
def test_full_ft_comms(capsys):
    with capsys.disabled():
        print()
        run_bench(full=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true", help="CI-sized run")
    group.add_argument("--full", action="store_true", help="assert the 5%% gate")
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    ns = parser.parse_args()
    try:
        run_bench(full=ns.full, json_path=ns.json)
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
