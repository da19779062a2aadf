"""Fuzz the SPMD runtime: random collective programs must complete
deadlock-free with consistent results on every rank.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_spmd

OPS = ("allreduce", "bcast", "allgather", "barrier", "gather")


@given(
    size=st.integers(min_value=2, max_value=5),
    program=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 10**6)),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=25, deadline=None)
def test_random_collective_programs_complete_consistently(size, program):
    def job(comm):
        trace = []
        for op, salt in program:
            root = salt % comm.size
            if op == "allreduce":
                arr = np.full(7, float(comm.rank + salt % 5))
                trace.append(round(float(comm.allreduce(arr, "sum")[0]), 9))
            elif op == "bcast":
                value = salt if comm.rank == root else None
                trace.append(comm.bcast(value, root=root))
            elif op == "allgather":
                trace.append(tuple(comm.allgather(comm.rank * 2)))
            elif op == "barrier":
                comm.barrier()
                trace.append("b")
            else:
                trace.append(comm.gather(comm.rank * 10, root=root))
        return trace

    results = run_spmd(size, job, timeout=30)
    # collective outcomes must agree wherever they are rank-independent
    for step, (op, salt) in enumerate(program):
        values = [r[step] for r in results]
        if op in ("allreduce", "bcast", "allgather", "barrier"):
            assert all(v == values[0] for v in values), (op, values)
        else:  # the root alone holds the rank-ordered list
            root = salt % size
            assert values[root] == [r * 10 for r in range(size)]
            assert all(v is None for r, v in enumerate(values) if r != root)
