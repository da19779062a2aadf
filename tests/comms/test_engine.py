"""CollectiveEngine execution: bit-identity, chunking, telemetry spans."""

import time

import numpy as np
import pytest

from repro.comms import CollectiveEngine, CollectiveOptions
from repro.comms.ft.engine import FaultTolerantEngine
from repro.mpi import run_spmd
from repro.telemetry import Tracer

ENGINES = {"plain": CollectiveEngine, "ft": FaultTolerantEngine}


def _rank_data(rank, size=4001, seed=0):
    rng = np.random.default_rng(seed + rank)
    return rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)


def _engine_vs_flat(world, opts, *, local_size=1, op="mean", size=4001):
    """Run engine allreduce and flat comm.allreduce on the same inputs."""

    def worker(comm):
        data = _rank_data(comm.rank, size=size)
        eng = CollectiveEngine(comm, options=opts)
        got = eng.allreduce(data.copy(), op=op, name="g")
        ref = comm.allreduce(data.copy(), op=op)
        return got, ref, dict(eng.last_info)

    return run_spmd(world, worker, local_size=local_size)


class TestBitIdentity:
    """Non-compressed schedules are bitwise equal to the flat allreduce."""

    @pytest.mark.parametrize("op", ["mean", "sum", "max"])
    def test_ring(self, op):
        for got, ref, info in _engine_vs_flat(
            4, CollectiveOptions(algorithm="ring"), op=op
        ):
            assert info["algorithm"] == "ring"
            np.testing.assert_array_equal(got, ref)

    def test_ring_chunked(self):
        opts = CollectiveOptions(algorithm="ring", chunk_bytes=1024)
        for got, ref, info in _engine_vs_flat(4, opts):
            assert info["chunks"] > 1
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("op", ["mean", "sum"])
    def test_rhd(self, op):
        opts = CollectiveOptions(algorithm="rhd")
        for got, ref, info in _engine_vs_flat(8, opts, op=op):
            assert info["algorithm"] == "rhd"
            np.testing.assert_array_equal(got, ref)

    def test_rhd_chunked(self):
        opts = CollectiveOptions(algorithm="rhd", chunk_bytes=2048)
        for got, ref, _ in _engine_vs_flat(8, opts):
            np.testing.assert_array_equal(got, ref)

    def test_hierarchical_two_nodes(self):
        opts = CollectiveOptions(algorithm="hierarchical")
        for got, ref, info in _engine_vs_flat(8, opts, local_size=4):
            assert info["algorithm"] == "hierarchical"
            np.testing.assert_array_equal(got, ref)

    def test_hierarchical_chunked(self):
        opts = CollectiveOptions(algorithm="hierarchical", chunk_bytes=2048)
        for got, ref, info in _engine_vs_flat(8, opts, local_size=4):
            assert info["chunks"] > 1
            np.testing.assert_array_equal(got, ref)

    @staticmethod
    def _wiped_on_return(opts, world, late_ranks, late_tags, local_size=1):
        """Each rank's allreduce of its input, wiped the moment the call
        returns, while ``late_ranks`` act 50 ms late on every message
        tagged one of ``late_tags``: whether each rank got the mean."""

        def worker(comm):
            data = _rank_data(comm.rank)
            want = comm.allreduce(data.copy(), op="mean")
            if comm.rank in late_ranks:
                recv = comm.recv

                def late_recv(source, tag=0):
                    obj = recv(source, tag)
                    if tag in late_tags:
                        time.sleep(0.05)
                    return obj

                comm.recv = late_recv
            got = CollectiveEngine(comm, options=opts).allreduce(data, name="g")
            data[...] = np.nan
            return got.tobytes() == want.tobytes()

        return run_spmd(world, worker, local_size=local_size)

    def test_hierarchical_input_may_be_overwritten_on_return(self):
        """No acknowledgement comes back along a rail, so a node may
        leave while the other still folds what it shipped. Here node 1
        reads its rail 50 ms late and every rank wipes its input the
        moment the call returns: the rail must carry copies."""
        opts = CollectiveOptions(algorithm="hierarchical")
        got = self._wiped_on_return(opts, 4, {2, 3}, {-106}, local_size=2)
        assert got == [True] * 4

    @pytest.mark.parametrize(
        "algorithm,world", [("ring", 2), ("ring", 3), ("rhd", 4)],
        ids=["ring-w2", "ring-w3", "rhd-w4"],
    )
    def test_input_may_be_overwritten_on_return(self, algorithm, world):
        """A rank returns only after every owner has folded what it
        shipped: the gather that completes it starts at the owners. So a
        caller may reduce its live gradient in place, with no defensive
        copy. Odd ranks read every reduce and gather message late; every
        rank wipes its input the moment the call returns."""
        opts = CollectiveOptions(algorithm=algorithm)
        late = set(range(1, world, 2))
        got = self._wiped_on_return(opts, world, late, {-101, -102, -103, -104})
        assert got == [True] * world

    def test_auto_on_multi_node_matches_flat(self):
        for got, ref, info in _engine_vs_flat(8, None, local_size=4):
            assert info["algorithm"] == "hierarchical"
            np.testing.assert_array_equal(got, ref)

    def test_uneven_sizes_not_divisible_by_world(self):
        # 4001 elements over 8 ranks exercises ragged segment bounds
        opts = CollectiveOptions(algorithm="ring")
        for got, ref, _ in _engine_vs_flat(8, opts, size=4001):
            np.testing.assert_array_equal(got, ref)

    def test_dtype_and_shape_preserved(self):
        def worker(comm):
            data = np.arange(24, dtype=np.float32).reshape(4, 6) + comm.rank
            eng = CollectiveEngine(comm, options=CollectiveOptions(algorithm="ring"))
            out = eng.allreduce(data, op="mean")
            return out.shape, out.dtype

        for shape, dtype in run_spmd(4, worker):
            assert shape == (4, 6) and dtype == np.float32


class TestTelemetryAndInfo:
    def test_one_span_per_chunk_with_attributes(self):
        opts = CollectiveOptions(algorithm="ring", chunk_bytes=8 << 10)

        def worker(comm):
            tracer = Tracer(run_id=f"r{comm.rank}")
            eng = CollectiveEngine(comm, options=opts, tracer=tracer)
            data = _rank_data(comm.rank, size=8192)  # 64 KiB -> 8 chunks
            eng.allreduce(data, name="grad/w0")
            spans = tracer.spans_named("allreduce_chunk")
            return eng.chunks_executed, [s.attrs for s in spans]

        for chunks, attrs in run_spmd(4, worker):
            assert chunks == 8 and len(attrs) == 8
            assert [a["chunk"] for a in attrs] == list(range(8))
            for a in attrs:
                assert a["tensor"] == "grad/w0"
                assert a["algorithm"] == "ring"
                assert a["bytes"] > 0

    def test_last_info_wire_bytes_match_plan(self):
        from repro.comms import Topology, plan_allreduce

        opts = CollectiveOptions(algorithm="ring")

        def worker(comm):
            eng = CollectiveEngine(comm, options=opts)
            data = np.ones(1024)
            eng.allreduce(data)
            return dict(eng.last_info)

        for info in run_spmd(4, worker):
            planned = plan_allreduce(1024 * 8, Topology(world=4), opts)
            assert info["wire_bytes"] == int(planned.wire_bytes())

    def test_single_rank_short_circuits(self):
        def worker(comm):
            eng = CollectiveEngine(comm)
            out = eng.allreduce(np.arange(8.0))
            return out, dict(eng.last_info)

        [(out, info)] = run_spmd(1, worker)
        np.testing.assert_array_equal(out, np.arange(8.0))
        assert info == {"algorithm": "flat", "chunks": 1, "wire_bytes": 0}

    @pytest.mark.parametrize("engine", ["plain", "ft"])
    def test_per_call_options_override_engine_default(self, engine):
        """A per-call ``flat`` overrides the engine's chunked ring and
        runs the same on both engines: the ring in one chunk, with
        ``comm.allreduce``'s bits."""
        chunked = CollectiveOptions(algorithm="ring", chunk_bytes=512)

        def worker(comm):
            data = _rank_data(comm.rank, size=256)  # 2 KiB: four ring chunks
            eng = ENGINES[engine](comm, options=chunked)
            try:
                got = eng.allreduce(
                    data.copy(), name="g", options=chunked.evolve(algorithm="flat")
                )
            finally:
                if isinstance(eng, FaultTolerantEngine):
                    eng.close()
            ref = comm.allreduce(data.copy(), op="mean")
            return got, ref, dict(eng.last_info)

        for got, ref, info in run_spmd(4, worker):
            assert (info["algorithm"], info["chunks"]) == ("flat", 1)
            np.testing.assert_array_equal(got, ref)
