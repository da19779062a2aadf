"""``CollectiveEngine.owned_ranges``, the one definition of ownership.

An owner step updates each element on the rank that reduced it, and a
rank keeps optimizer state for the ranges it owns only. So the ranges
``owned_ranges`` names must be exactly the ranges
``CollectiveEngine.allreduce_update`` hands its ``update`` (recorded
here with a spy), and the ranks' ranges must partition every fusion
group of the arena exactly once: once across the world for ring and
rhd, once within each node for hierarchical, whose rail peers update
the same slice.

Drawn: ring, rhd and hierarchical (an infeasible choice demotes, and
the partition rule follows the algorithm that ran); world 2–4; one or
two ranks a node; chunks of 1,024 bytes or none; fusion groups of 512
bytes or the default; float32 or float64.

Hypothesis budget: 40 derandomized examples in tier-1, 600 with
``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms import CollectiveEngine, CollectiveOptions
from repro.mpi import run_spmd
from repro.train import TrainOptions
from tests.hvd.step_oracle import build

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


def covered_once(ranges, size):
    """Whether ``ranges`` cover ``[0, size)`` with no gap or overlap."""
    hits = np.zeros(size, dtype=np.int64)
    for lo, hi in ranges:
        hits[lo:hi] += 1
    return bool((hits == 1).all())


@FUZZ
@given(
    world=st.integers(2, 4),
    two_a_node=st.booleans(),
    algorithm=st.sampled_from(["ring", "rhd", "hierarchical"]),
    chunk_bytes=st.sampled_from([None, 1024]),
    fusion_bytes=st.sampled_from([512, CollectiveOptions().fusion_bytes]),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_owned_ranges_are_the_updated_ranges_and_partition_each_group(
    world, two_a_node, algorithm, chunk_bytes, fusion_bytes, dtype
):
    local_size = 2 if two_a_node and world % 2 == 0 else 1
    opts = CollectiveOptions(algorithm=algorithm, chunk_bytes=chunk_bytes)
    arena = build(7, TrainOptions(dtype=dtype)).arena
    groups = [(start, stop) for start, stop, _ in arena.fusion_groups(fusion_bytes)]

    def worker(comm):
        engine = CollectiveEngine(comm, options=opts)
        grads = np.random.default_rng(comm.rank).normal(size=arena.size).astype(dtype)
        params = arena.params_flat.copy()
        out = []
        for start, stop in groups:
            updated = []
            engine.allreduce_update(
                (grads[start:stop], params[start:stop]),
                lambda lo, hi: updated.append((lo, hi)),
                name="g",
            )
            owned = engine.owned_ranges(stop - start, arena.dtype.itemsize, opts)
            out.append((engine.last_info["algorithm"], owned, updated))
        return out

    results = run_spmd(world, worker, local_size=local_size)
    for g, (start, stop) in enumerate(groups):
        size = stop - start
        ran = {rank_out[g][0] for rank_out in results}
        assert len(ran) == 1, ran
        for rank, rank_out in enumerate(results):
            _, owned, updated = rank_out[g]
            assert owned == updated, (rank, g)
        if ran == {"hierarchical"}:
            nodes = [range(n, n + local_size) for n in range(0, world, local_size)]
        else:
            nodes = [range(world)]
        for node in nodes:
            ranges = [r for rank in node for r in results[rank][g][1]]
            assert covered_once(ranges, size), (sorted(ran), g, ranges)
