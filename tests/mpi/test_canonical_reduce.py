"""``canonical_reduce`` against the stacked reduction it replaced.

Every collective — the communicator's ring and tree, the engine's ring,
rhd and hierarchical schedules — defers its arithmetic to
``canonical_reduce``, so its bits are the bits of every allreduce. It
folds the contributions into one float64 array in ascending rank order
instead of materializing ``np.stack`` (p × n); none of that may show in
a byte.

The oracle (``oracle``) is ``np.stack(...).<op>(axis=0)``, a plain
function. Each contribution is stacked beside a copy of itself on a
trailing axis, so a one-element contribution is reduced across ranks by
the same in-order walk numpy uses for every longer array, and not by the
pairwise sum numpy runs along a contiguous axis (from 8 terms on).
Comparisons are ``dtype`` + ``tobytes()`` (see ``same_bytes`` for the
one NaN-sign allowance), and the exception type for mismatched shapes.

Hypothesis budget: 40 derandomized examples in tier-1, 600 with
``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.comms import CollectiveEngine, CollectiveOptions
from repro.mpi import run_spmd
from repro.mpi.communicator import canonical_reduce

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)

OPS = ("sum", "mean", "max", "min")


def oracle(values, op):
    """The stacked reduction, every element reduced as a column."""
    pairs = [np.stack([v, v], axis=-1) for v in (np.asarray(x, dtype=np.float64) for x in values)]
    return getattr(np.stack(pairs), op)(axis=0)[..., 0]


def same_bytes(got, want) -> bool:
    """``dtype``, shape and bytes equal.

    One exception: a one-element NaN result may be any NaN. When two
    NaNs meet in an add, numpy's one-element loop keeps the second
    operand and its vector loop the first, so which sign survives is a
    property of the kernel numpy dispatches, not of the reduction order.
    """
    got = np.asarray(got)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if want.size == 1 and np.isnan(want).all():
        return bool(np.isnan(got).all())
    return got.tobytes() == want.tobytes()


def outcome(fn, values, op):
    """``("ok", array)`` or ``("raise", exception type)``."""
    try:
        with np.errstate(all="ignore"):
            return "ok", np.asarray(fn(values, op))
    except Exception as exc:  # the type is what is compared
        return "raise", type(exc)


# ---------------------------------------------------------------------------
# the fixed corpus
# ---------------------------------------------------------------------------

SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.25, 1e300, -1e300, 5e-324])


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("shape", [(), (1,), (2,), (3, 1), (2, 5)], ids=str)
def test_special_values_fold_like_the_stack(shape, p, op):
    rng = np.random.default_rng(p * 131 + len(shape))
    for _ in range(25):
        values = [rng.choice(SPECIALS, size=shape) for _ in range(p)]
        kind, got = outcome(canonical_reduce, values, op)
        assert kind == "ok"
        with np.errstate(all="ignore"):
            want = oracle(values, op)
        assert same_bytes(got, want), (values, op)


def test_zero_d_contributions_reduce_to_a_float64_scalar():
    """The stacked reduction of 0-d arrays returned a numpy scalar."""
    got = canonical_reduce([np.array(1.0), np.array(2.5)], "mean")
    assert type(got) is np.float64 and got == 1.75


def test_eight_ranks_of_one_element_fold_in_rank_order():
    """A stack of eight one-element contributions sums pairwise; the
    fold keeps ascending rank order, as for any longer contribution."""
    values = [np.array([x]) for x in (1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0)]
    folded = ((((((1e16 + 1.0) + -1e16) + 1.0) + 1.0) + 1.0) + 1.0) + 1.0
    assert canonical_reduce(values, "sum")[0] == folded
    assert np.stack(values).sum(axis=0)[0] != folded  # numpy's pairwise order


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize(
    "shapes", [[(3,), (1,)], [(1,), (3,)], [(3,), ()], [(2, 3), (3,)], [(4,), (4,), (2, 2)]],
    ids=str,
)
def test_mismatched_shapes_raise_like_the_stack_and_never_broadcast(shapes, op):
    values = [np.ones(s) for s in shapes]
    assert outcome(canonical_reduce, values, op) == outcome(oracle, values, op)
    assert outcome(canonical_reduce, values, op)[0] == "raise"


def test_one_element_segments_keep_the_engine_bit_identical_to_flat():
    """Eight ranks, a 16-element tensor in 8-element chunks: the engine's
    ring reduces one-element segments while the flat ring reduces
    two-element ones. The same rank order makes them the same bits."""

    def worker(comm):
        rng = np.random.default_rng(comm.rank)
        data = rng.normal(size=16) * 10.0 ** rng.integers(-3, 4, size=16)
        opts = CollectiveOptions(algorithm="ring", chunk_bytes=64)
        engine = CollectiveEngine(comm, options=opts)
        got = engine.allreduce(data.copy(), op="sum", name="g")
        return got, comm.allreduce(data.copy(), op="sum"), engine.last_info["chunks"]

    for got, ref, chunks in run_spmd(8, worker):
        assert chunks == 2
        assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_ELEMENTS = {
    "f64": st.floats(allow_nan=True, allow_infinity=True),
    "f32": st.floats(allow_nan=True, allow_infinity=True, width=32),
    "i64": st.integers(-(2**62), 2**62),
}
_DTYPES = {"f64": np.float64, "f32": np.float32, "i64": np.int64}


@st.composite
def contributions(draw):
    """``(values, op)``: 1–8 same-shape contributions, dtypes mixed freely."""
    p = draw(st.integers(1, 8))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5))
    values = []
    for _ in range(p):
        kind = draw(st.sampled_from(sorted(_DTYPES)))
        values.append(draw(hnp.arrays(_DTYPES[kind], shape, elements=_ELEMENTS[kind])))
    return values, draw(st.sampled_from(OPS))


@FUZZ
@given(contributions())
def test_fold_is_the_stacked_reduction(case):
    values, op = case
    kind, got = outcome(canonical_reduce, values, op)
    assert kind == "ok"
    with np.errstate(all="ignore"):
        want = oracle(values, op)
    assert same_bytes(got, want)


@FUZZ
@given(
    st.lists(hnp.array_shapes(min_dims=0, max_dims=2, max_side=4), min_size=2, max_size=5),
    st.sampled_from(OPS),
)
def test_any_shape_list_raises_where_the_stack_raises(shapes, op):
    values = [np.full(s, 2.0) for s in shapes]
    want = outcome(oracle, values, op)
    got = outcome(canonical_reduce, values, op)
    if want[0] == "raise":
        assert got == want
    else:
        assert got[0] == "ok" and same_bytes(got[1], want[1])


# ---------------------------------------------------------------------------
# memory: counted with tracemalloc, never timed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", OPS)
def test_two_4mb_contributions_peak_at_one_result(op):
    """The stack held p × n plus the result: 3× one array at p = 2."""
    rng = np.random.default_rng(0)
    values = [rng.normal(size=1 << 19) for _ in range(2)]  # 4 MiB each
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = canonical_reduce(values, op)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.nbytes == values[0].nbytes
    assert peak < 1.5 * values[0].nbytes
