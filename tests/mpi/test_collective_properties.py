"""Property-based collective correctness: the threaded tree and ring
algorithms must match the mathematical definitions for arbitrary
payloads and rank counts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_spmd


@given(
    size=st.integers(min_value=1, max_value=6),
    length=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_allreduce_equals_numpy_sum(size, length, seed):
    base = np.random.default_rng(seed).normal(size=(size, length))

    def job(comm):
        return comm.allreduce(base[comm.rank].copy(), op="sum")

    expected = base.sum(axis=0)
    for result in run_spmd(size, job):
        assert np.allclose(result, expected, atol=1e-9)


@given(
    size=st.integers(min_value=2, max_value=6),
    root=st.data(),
    payload=st.one_of(
        st.integers(),
        st.text(max_size=20),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
    ),
)
@settings(max_examples=20, deadline=None)
def test_bcast_delivers_root_payload(size, root, payload):
    r = root.draw(st.integers(min_value=0, max_value=size - 1))

    def job(comm):
        return comm.bcast(payload if comm.rank == r else None, root=r)

    assert all(v == payload for v in run_spmd(size, job))


@given(size=st.integers(min_value=1, max_value=6), seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_allgather_is_identity_permutation(size, seed):
    tokens = np.random.default_rng(seed).integers(0, 10**6, size=size).tolist()

    def job(comm):
        return comm.allgather(tokens[comm.rank])

    for result in run_spmd(size, job):
        assert result == tokens


@given(
    size=st.integers(min_value=2, max_value=5),
    length=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=15, deadline=None)
def test_allreduce_mean_bounded_by_min_max(size, length):
    rng = np.random.default_rng(size * 100 + length)
    base = rng.normal(size=(size, length))

    def job(comm):
        return comm.allreduce(base[comm.rank].copy(), op="mean")

    lo, hi = base.min(axis=0), base.max(axis=0)
    for result in run_spmd(size, job):
        assert np.all(result >= lo - 1e-12)
        assert np.all(result <= hi + 1e-12)
