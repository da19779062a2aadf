"""Communicator: point-to-point and each collective algorithm."""

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mpi.communicator import Communicator, _Context

SIZES = (1, 2, 3, 4, 7, 8)


def test_local_rank_and_node_index():
    ctx = _Context(12, timeout=5)
    comm = Communicator(ctx, rank=7, local_size=6)
    assert comm.local_rank == 1
    assert comm.node_index == 1


def test_rank_out_of_range_rejected():
    ctx = _Context(2, timeout=5)
    with pytest.raises(ValueError):
        Communicator(ctx, rank=2)


def test_send_recv_pair():
    def job(comm):
        if comm.rank == 0:
            comm.send({"payload": 42}, dest=1)
            return None
        return comm.recv(source=0)

    assert run_spmd(2, job)[1] == {"payload": 42}


def test_send_recv_tags_keep_streams_separate():
    def job(comm):
        if comm.rank == 0:
            comm.send("tag5", dest=1, tag=5)
            comm.send("tag9", dest=1, tag=9)
            return None
        # receive in reverse tag order
        nine = comm.recv(source=0, tag=9)
        five = comm.recv(source=0, tag=5)
        return (five, nine)

    assert run_spmd(2, job)[1] == ("tag5", "tag9")


@pytest.mark.parametrize("size", SIZES)
def test_bcast_from_every_root(size):
    def job(comm):
        out = []
        for root in range(comm.size):
            value = {"from": root} if comm.rank == root else None
            out.append(comm.bcast(value, root=root))
        return out

    for ranks in run_spmd(size, job):
        assert ranks == [{"from": r} for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_sum_and_mean(size):
    def job(comm):
        arr = np.full(97, float(comm.rank + 1))  # 97 deliberately != k*size
        total = comm.allreduce(arr, op="sum")
        mean = comm.allreduce(arr, op="mean")
        return total[0], mean[0]

    expected_sum = sum(range(1, size + 1))
    for total, mean in run_spmd(size, job):
        assert total == pytest.approx(expected_sum)
        assert mean == pytest.approx(expected_sum / size)


def test_allreduce_max_min():
    def job(comm):
        arr = np.array([float(comm.rank), -float(comm.rank)])
        return comm.allreduce(arr, "max")[0], comm.allreduce(arr, "min")[1]

    for mx, mn in run_spmd(5, job):
        assert mx == 4.0 and mn == -4.0


def test_allreduce_scalar_uses_tree():
    def job(comm):
        return comm.allreduce(float(comm.rank), op="sum")

    assert all(v == 6.0 for v in run_spmd(4, job))


def test_allreduce_sums_a_list_elementwise():
    for got in run_spmd(2, lambda comm: comm.allreduce([1.0, 2.0], op="sum")):
        assert isinstance(got, np.ndarray) and got.tolist() == [2.0, 4.0]


def test_allreduce_averages_a_tuple_elementwise():
    for got in run_spmd(2, lambda comm: comm.allreduce((1.0, float(comm.rank)), op="mean")):
        assert got.tolist() == [1.0, 0.5]


def test_allreduce_of_a_str_raises_naming_the_type():
    from repro.mpi.runtime import SpmdError

    with pytest.raises(SpmdError) as info:
        run_spmd(2, lambda comm: comm.allreduce("ab", op="sum"))
    assert isinstance(info.value.cause, TypeError) and "str" in str(info.value.cause)


def test_allreduce_bad_op():
    def job(comm):
        comm.allreduce(np.ones(4), op="xor")

    from repro.mpi.runtime import SpmdError

    with pytest.raises(SpmdError):
        run_spmd(2, job)


def test_allreduce_preserves_shape_and_dtype():
    def job(comm):
        arr = np.ones((3, 5), dtype=np.float32)
        out = comm.allreduce(arr, op="sum")
        return out.shape, out.dtype

    for shape, dtype in run_spmd(3, job):
        assert shape == (3, 5)
        assert dtype == np.float32


@pytest.mark.parametrize("size", SIZES)
def test_allgather_order(size):
    def job(comm):
        return comm.allgather(f"rank{comm.rank}")

    for result in run_spmd(size, job):
        assert result == [f"rank{r}" for r in range(size)]


def test_gather_to_root():
    def job(comm):
        return comm.gather(comm.rank * 10, root=1)

    results = run_spmd(4, job)
    assert results[1] == [0, 10, 20, 30]
    assert results[0] is None


def test_stats_counters_track_ops():
    def job(comm):
        comm.allreduce(np.ones(64))
        comm.bcast(1 if comm.rank == 0 else None)
        comm.barrier()
        return comm.stats.as_dict()

    stats = run_spmd(3, job)[0]
    assert stats["allreduces"] == 1
    assert stats["bcasts"] == 1
    assert stats["barriers"] == 1
    assert stats["bytes_sent"] > 0
