"""Microbenchmark: the collective engine on a simulated Summit node pair.

Three measurements on the 2-node x 6-GPU topology (12 ranks):

- **bit-identity** — executes ring, rhd, hierarchical, and chunked
  schedules with real SPMD threads and asserts the results are bitwise
  equal to the flat reference allreduce (the engine's numerics
  contract);
- **simulated allreduce wall-clock** — prices NT3's fused gradient
  pieces under each algorithm schedule on the Summit fabric
  (alpha-beta-gamma), against the seed's flat tree allreduce. Full mode
  asserts hierarchical+fused is at least 1.5x the flat baseline;
- **broadcast overhead** — the fig12 sim at 384 GPUs: original vs
  chunked broadcast overhead, reported alongside the paper's ~9x
  reduction (43.72 s -> 4.9 s).

Run standalone::

    python benchmarks/bench_comms.py --smoke   # CI-sized, identity only
    python benchmarks/bench_comms.py --full    # + asserts hierarchical+fused
                                               #   >= 1.5x flat on the pair
    python benchmarks/bench_comms.py --smoke --json BENCH_comms.json

Under pytest the smoke path always runs; the full path is opt-in via
``COMMS_BENCH_FULL=1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
import pytest

from repro.candle.nt3 import NT3_SPEC
from repro.cluster.machine import SUMMIT
from repro.comms import (
    CollectiveEngine,
    CollectiveOptions,
    Topology,
    plan_allreduce,
    plan_broadcast,
)
from repro.experiments import run_experiment
from repro.mpi import run_spmd
from repro.telemetry.report import format_table

#: the simulated topology the acceptance gate names: 2 nodes x 6 GPUs
PAIR = Topology(world=12, local_size=6)

#: paper §5.2: broadcast overhead falls 43.72 s -> 4.9 s on 384 GPUs
PAPER_BROADCAST_REDUCTION_X = 43.72 / 4.9


def _fused_pieces(nbytes: int, cap: int) -> list[int]:
    pieces = [cap] * (nbytes // cap)
    if nbytes % cap:
        pieces.append(nbytes % cap)
    return pieces


def check_bit_identity(elements: int) -> dict[str, bool]:
    """Execute each schedule with real ranks; compare bits vs flat."""

    def worker(comm, opts):
        rng = np.random.default_rng(17 + comm.rank)
        data = rng.normal(size=elements) * 10.0 ** rng.integers(-3, 4)
        eng = CollectiveEngine(comm, options=opts)
        got = eng.allreduce(data.copy(), op="mean", name="g")
        ref = comm.allreduce(data.copy(), op="mean")
        return bool(np.array_equal(got, ref))

    cases = {
        "ring": (12, 6, CollectiveOptions(algorithm="ring")),
        "rhd": (8, 4, CollectiveOptions(algorithm="rhd")),
        "hierarchical": (12, 6, CollectiveOptions(algorithm="hierarchical")),
        "hierarchical_chunked": (
            12, 6, CollectiveOptions(algorithm="hierarchical", chunk_bytes=8 << 10),
        ),
        "auto": (12, 6, None),
    }
    out = {}
    for label, (world, local, opts) in cases.items():
        results = run_spmd(world, worker, opts, local_size=local)
        out[label] = all(results)
    return out


def simulated_allreduce(fusion_bytes: int, chunk_bytes: int) -> tuple[list[dict], dict]:
    """Price NT3's gradient on the node pair, per algorithm schedule."""
    fabric = SUMMIT.fabric
    nbytes = NT3_SPEC.gradient_bytes
    pieces = _fused_pieces(nbytes, fusion_bytes)

    # the seed path: one flat tree reduction per fused piece (reduce
    # to root + broadcast, every round moving the full piece over the
    # bounding inter-node link) — what comm.allreduce executes
    tree = CollectiveOptions(algorithm="flat")
    flat_s = sum(
        2 * plan_broadcast(piece, PAIR, tree).seconds(fabric)
        + piece * fabric.reduce_gamma_s_per_b * math.ceil(math.log2(PAIR.world))
        for piece in pieces
    )

    def planned(opts: CollectiveOptions) -> float:
        return sum(
            plan_allreduce(piece, PAIR, opts).seconds(fabric) for piece in pieces
        )

    variants = {
        "flat tree (seed)": flat_s,
        "ring": planned(CollectiveOptions(algorithm="ring")),
        "hierarchical": planned(CollectiveOptions(algorithm="hierarchical")),
        "hierarchical+fused chunks": planned(
            CollectiveOptions(algorithm="hierarchical", chunk_bytes=chunk_bytes)
        ),
    }
    rows = [
        {
            "schedule": label,
            "ms": round(seconds * 1e3, 2),
            "speedup_vs_flat": round(flat_s / seconds, 2),
        }
        for label, seconds in variants.items()
    ]
    summary = {
        "gradient_bytes": nbytes,
        "fused_pieces": len(pieces),
        "ms": {label: s * 1e3 for label, s in variants.items()},
        "speedup_hierarchical_fused_vs_flat": (
            flat_s / variants["hierarchical+fused chunks"]
        ),
    }
    return rows, summary


def broadcast_reduction() -> dict:
    """Sim-predicted fig12 broadcast overhead, original vs chunked."""
    res = run_experiment("fig12", fast=True)
    original = res.measured["original overhead s"]
    optimized = res.measured["optimized overhead s"]
    return {
        "original_s": original,
        "optimized_s": optimized,
        "reduction_x": original / optimized,
        "paper_reduction_x": PAPER_BROADCAST_REDUCTION_X,
    }


def run_bench(full: bool = False, json_path: str | None = None) -> dict:
    identity = check_bit_identity(elements=40_000 if full else 4_001)
    rows, allreduce_summary = simulated_allreduce(
        fusion_bytes=64 << 20, chunk_bytes=4 << 20
    )
    bcast = broadcast_reduction()

    print(format_table(
        rows,
        title=f"simulated NT3 allreduce, 2 nodes x 6 GPUs "
        f"({allreduce_summary['fused_pieces']} fused pieces)",
    ))
    print(
        "bit-identical vs flat allreduce: "
        + ", ".join(f"{k}={v}" for k, v in identity.items())
    )
    print(
        f"broadcast overhead (fig12 sim, 384 GPUs): "
        f"{bcast['original_s']:.2f} s -> {bcast['optimized_s']:.2f} s "
        f"({bcast['reduction_x']:.1f}x; paper ~{bcast['paper_reduction_x']:.1f}x)"
    )

    result = {
        "mode": "full" if full else "smoke",
        "topology": {"world": PAIR.world, "local_size": PAIR.local_size},
        "bit_identical": identity,
        "allreduce": allreduce_summary,
        "broadcast": bcast,
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {json_path}")

    assert all(identity.values()), f"bit-identity violated: {identity}"
    if full:
        speedup = allreduce_summary["speedup_hierarchical_fused_vs_flat"]
        assert speedup >= 1.5, (
            f"hierarchical+fused only {speedup:.2f}x over flat on the "
            f"simulated node pair (need >= 1.5x)"
        )
    return result


# -- pytest entry points ----------------------------------------------------

def test_smoke_comms_identity(capsys):
    with capsys.disabled():
        print()
        run_bench(full=False)


@pytest.mark.skipif(
    os.environ.get("COMMS_BENCH_FULL") != "1",
    reason="full comms bench needs COMMS_BENCH_FULL=1",
)
def test_full_comms_criteria(capsys):
    with capsys.disabled():
        print()
        run_bench(full=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true", help="CI-sized, identity checks only")
    group.add_argument("--full", action="store_true", help="+ speedup assertion on the node pair")
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    args = parser.parse_args(argv)
    run_bench(full=args.full, json_path=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
