"""``Conv1D`` / ``MaxPooling1D`` on two cores against the one-pass oracle.

``repro.nn.halves`` runs the first samples of a batch on the calling
thread and the rest on a helper thread, cuts a forward or dx GEMM's rows
only where ``gemm_edges`` allows, and runs a dW GEMM whole beside the dx
GEMM, and streams a forward or dx window matrix through a block in row
tiles cut by the same rule (each Conv1D case runs at today's block and
at 16-row tiles). None of it may show in a byte. The oracle is
``test_conv_reference``'s tensordot / argmax formulation, kept as plain
functions (for pooling, through the one-pass layer, which owns the NaN
and signed-zero ties argmax does not decide); the split is forced by
patching ``halves.MIN_WORK`` to 0 (and the core count to 2). The GEMM
rule itself is checked against BLAS directly, and a ``Conv1D`` with one
tap, whose dx the parent computed on another operand layout than the
oracle's, now matches it. Shapes straddle OpenBLAS's small-matrix limit
(``M·N·K = 100³``), where a cut in the wrong place changes the sums: a
copy of ``halves`` without the ``M·N·K`` condition, or without the
16-row alignment, fails this file. Comparisons are ``dtype`` +
``tobytes()``, never ``allclose``.

The concurrency half: who may use the helper (the main thread only),
what the caller sees of an error in the helper's half, a forked child,
and the warmed-step allocation bound.

Hypothesis budget: 40 derandomized examples per property in tier-1, 600
with ``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).
"""

import contextlib
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candle import get_benchmark
from repro.nn import Conv1D, Dense, Flatten, MaxPooling1D, Sequential, get_optimizer, halves
from repro.nn import activations as _act
from repro.nn import models as _models
from repro.train import TrainOptions
from tests.nn.test_conv_reference import (
    BLOCK_BYTES,
    built,
    ref_conv_dw,
    ref_conv_dx,
    ref_conv_forward,
    ref_pad_same,
    ref_pool,
    ref_pool_dx,
    window_block,
)

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


def same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class QueueSpy:
    """The helper's job queue, counting what is put on it."""

    def __init__(self, inner):
        self.inner, self.puts = inner, 0

    def put(self, job):
        self.puts += 1
        self.inner.put(job)

    def get(self):
        return self.inner.get()


@contextlib.contextmanager
def one_pass():
    """Split no call."""
    saved = halves.MIN_WORK
    halves.MIN_WORK = 1 << 62
    try:
        yield
    finally:
        halves.MIN_WORK = saved


@contextlib.contextmanager
def forced_split():
    """Split every call made on the main thread; yields the queue spy."""
    saved = halves.MIN_WORK, halves._CORES
    halves.MIN_WORK, halves._CORES = 0, 2
    halves.halves(lambda lo, hi: None, 2, 0)  # the helper is running
    spy = QueueSpy(halves._helper.jobs)
    halves._helper.jobs = spy
    try:
        yield spy
    finally:
        halves._helper.jobs = spy.inner
        halves.MIN_WORK, halves._CORES = saved


# ---------------------------------------------------------------------------
# the rule itself, against BLAS
# ---------------------------------------------------------------------------


def pieces_equal_whole(m, n, k, edges, dtype, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    out = np.empty((m, n), dtype)
    for lo, hi in zip(edges, edges[1:]):
        np.dot(a[lo:hi], b, out=out[lo:hi])
    return same_bytes(out, np.dot(a, b))


def test_the_rule_at_the_small_matrix_limit():
    """(K, N) = (144, 2): a 3,472-row piece (999,936) is at the limit and
    its sums differ from a whole above it; a 3,488-row piece is not."""
    assert halves.gemm_edges([0, 3472, 6960], 2, 144) == [0, 6960]
    assert halves.gemm_edges([0, 3488, 6976], 2, 144) == [0, 3488, 6976]
    assert pieces_equal_whole(6976, 2, 144, [0, 3488, 6976], np.float64)
    # below the limit both ways, a cut survives; a one-row piece does not
    assert halves.gemm_edges([0, 16, 40], 5, 9) == [0, 16, 40]
    assert halves.gemm_edges([0, 32, 33], 5, 9) == [0, 33]
    assert halves.gemm_edges([0, 20, 40], 5, 9) == [0, 40]
    # a matrix-vector product is cut only while it is small
    assert halves.gemm_edges([0, 16, 40], 1, 9) == [0, 16, 40]
    assert halves.gemm_edges([0, 1 << 13, 1 << 15], 1, 2) == [0, 1 << 15]


def test_a_blas_the_rule_was_not_measured_on_is_never_cut(monkeypatch):
    def show_config():  # numpy < 1.26: no mode argument
        pass

    monkeypatch.setattr(np, "show_config", show_config)
    assert not halves._reports_openblas()
    monkeypatch.setattr(halves, "_OPENBLAS", False)
    assert halves.gemm_edges([0, 16, 40], 5, 9) == [0, 40]


@st.composite
def gemm_cuts(draw):
    n = draw(st.sampled_from([1, 2, 3, 5, 16, 17, 64]))
    k = draw(st.sampled_from([1, 2, 9, 18, 144, 160, 288]))
    # whole GEMMs from a third of the limit to three times it
    m = max(2, int(draw(st.floats(0.3, 3.0)) * halves.SMALL_GEMM / (n * k)))
    m = min(m, 40_000)
    cuts = sorted(set(draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=4))))
    # half of them on the 16-row grid, where the rule has something to decide
    if draw(st.booleans()):
        cuts = sorted({c - c % 16 for c in cuts} - {0})
    return dict(m=m, n=n, k=k, edges=[0, *cuts, m],
                dtype=draw(st.sampled_from([np.float32, np.float64])))


@FUZZ
@given(gemm_cuts())
def test_every_cut_the_rule_keeps_leaves_the_bytes(case):
    kept = halves.gemm_edges(case["edges"], case["n"], case["k"])
    assert kept[0] == 0 and kept[-1] == case["m"] and set(kept) <= set(case["edges"])
    assert pieces_equal_whole(case["m"], case["n"], case["k"], kept, case["dtype"])


# ---------------------------------------------------------------------------
# Conv1D
# ---------------------------------------------------------------------------

ACTIVATIONS = [None, "relu", "tanh", "sigmoid"]


@st.composite
def conv_cases(draw):
    filters = draw(st.sampled_from([1, 2, 5, 16]))
    channels = draw(st.sampled_from([1, 2, 3, 16]))
    kernel = draw(st.integers(1, max(1, min(10, 160 // channels))))
    n = draw(st.integers(2, 9))
    # forward (and dx) M·N·K from a third of the limit to 2.5 times it,
    # so halves and dx tiles land on both sides
    mnk = filters * kernel * channels
    steps = int(draw(st.floats(0.3, 2.5)) * halves.SMALL_GEMM / (n * mnk)) + kernel - 1
    return dict(
        filters=filters, channels=channels, kernel=kernel, n=n,
        steps=max(kernel, min(steps, 1500)),
        padding=draw(st.sampled_from(["valid", "same"])),
        activation=draw(st.sampled_from(ACTIVATIONS)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        nan=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def conv_oracle(layer, x, rng):
    """``(y, dy, dW, db, dx)`` of the tensordot formulation, ``dy`` drawn
    from ``rng``."""
    kernel, bias = layer.params["kernel"], layer.params["bias"]
    k = layer.kernel_size
    xp, left, right = ref_pad_same(x, k) if layer.padding == "same" else (x, 0, 0)
    z = ref_conv_forward(xp, kernel, bias)
    act = layer.activation_name
    y = z if act is None else _act.get(act)[0](z)
    dy = rng.normal(size=y.shape).astype(y.dtype)
    dz = dy if act is None else dy * _act.get(act)[1](z, y)
    return y, dy, ref_conv_dw(xp, dz, k), dz.sum(axis=(0, 1)), ref_conv_dx(dz, kernel, left, right)


@FUZZ
@given(conv_cases())
def test_conv1d_split_is_the_tensordot_formulation(case):
    layer = built(
        Conv1D(case["filters"], case["kernel"], activation=case["activation"],
               padding=case["padding"]),
        (case["steps"], case["channels"]), case["dtype"],
    )
    rng = np.random.default_rng(case["seed"])
    layer.params["bias"][...] = rng.normal(size=case["filters"])
    x = rng.normal(size=(case["n"], case["steps"], case["channels"])).astype(case["dtype"])
    if case["nan"]:
        x[-1, rng.integers(case["steps"]), 0] = np.nan
    y_want, dy, dw_want, db_want, dx_want = conv_oracle(layer, x, rng)
    for nbytes in BLOCK_BYTES:
        with window_block(nbytes):
            with forced_split() as spy:
                assert same_bytes(layer.forward(x, training=False), y_want)
                assert same_bytes(layer.forward(x, training=True), y_want)
                dx = layer.backward(dy)
                assert spy.puts >= 2  # the backward's halves, and dW beside dx
            assert same_bytes(layer.grads["kernel"], dw_want)
            assert same_bytes(layer.grads["bias"], db_want)
            assert same_bytes(dx, dx_want)
            with forced_split():
                layer.grads.clear()
                assert layer.backward(dy, input_grad=False) is None
            assert same_bytes(layer.grads["kernel"], dw_want)
            assert same_bytes(layer.grads["bias"], db_want)


# ---------------------------------------------------------------------------
# MaxPooling1D
# ---------------------------------------------------------------------------


@st.composite
def pool_cases(draw):
    pool = draw(st.sampled_from([1, 2, 9]))
    return dict(
        pool=pool, n=draw(st.integers(2, 9)), steps=draw(st.integers(pool, 300)),
        channels=draw(st.integers(1, 16)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        nan=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
    )


@FUZZ
@given(pool_cases())
def test_maxpooling_split_is_argmax_plus_max(case):
    p, n, steps, c = case["pool"], case["n"], case["steps"], case["channels"]
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(n, steps, c)).astype(case["dtype"])
    x[0] = np.round(x[0])  # ties: the first maximum wins
    if case["nan"]:
        x[-1, :: max(1, steps // 5), 0] = np.nan
    dy = rng.normal(size=(n, steps // p, c)).astype(case["dtype"])
    # the one-pass layer is argmax plus max: np.max's values (NaN
    # included; which zero a tie of -0.0 and 0.0 keeps is its own walk's),
    # and argmax's winning taps and dx where no window holds a NaN
    whole = built(MaxPooling1D(p), (steps, c), case["dtype"])
    with one_pass():
        want = whole.forward(x, training=True).copy()
        want_idx = whole._cache[1].copy()
        want_dx = whole.backward(dy).copy()
    assert np.array_equal(want, ref_pool(x, p)[0], equal_nan=True)
    if not case["nan"]:
        assert same_bytes(want_idx, ref_pool(x, p)[1])
        assert same_bytes(want_dx, ref_pool_dx(x.shape, want_idx, dy, p))
    layer = built(MaxPooling1D(p), (steps, c), case["dtype"])
    with forced_split() as spy:
        assert same_bytes(layer.forward(x, training=False), want)
        assert same_bytes(layer.backward(dy), want_dx)  # winners derived
        assert same_bytes(layer.forward(x, training=True), want)
        assert same_bytes(layer._cache[1], want_idx)
        assert same_bytes(layer.backward(dy), want_dx)
        assert spy.puts == 5


# ---------------------------------------------------------------------------
# the model: NT3 at the e2e geometry, split and not
# ---------------------------------------------------------------------------


def nt3(dtype=np.float64):
    bench = get_benchmark("nt3", scale=0.02, sample_scale=1.0)
    data = bench.synth_arrays(np.random.default_rng(3))
    model = bench.build_model(seed=3, train=TrainOptions(dtype=dtype))
    model.compile(get_optimizer("sgd", lr=0.01), "categorical_crossentropy")
    return model, data.x_train[:80].astype(dtype), data.y_train[:80].astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_nt3_steps_and_predict_are_the_one_pass_bytes(dtype):
    split, x, y = nt3(dtype)
    whole = nt3(dtype)[0]
    for step in range(4):
        rows = slice(step * 20, step * 20 + 20 - (step == 3))  # an odd last batch
        with forced_split() as spy:
            loss = split.train_on_batch(x[rows], y[rows])["loss"]
            assert spy.puts > 0
        with one_pass():
            assert loss == whole.train_on_batch(x[rows], y[rows])["loss"]
    for a, b in zip(split.get_weights(), whole.get_weights()):
        assert same_bytes(a, b)
    with forced_split():
        got = split.predict(x)
    with one_pass():
        assert same_bytes(got, whole.predict(x))


def test_predict_tiles_do_not_cross_the_small_matrix_limit():
    """A 512-example tile of a narrow Conv1D leaves a 40-example tile
    whose GEMM (1,280 × 144 × 2) is under the limit while the slice's is
    over it: the parent's predict changed bytes there."""
    model = Sequential([Conv1D(2, 9, activation="relu"), Flatten(), Dense(1)])
    model.build((40, 16), seed=0, train=TrainOptions(dtype=np.float64))
    x = np.random.default_rng(0).standard_normal((552, 40, 16))
    saved = _models.WORKSPACE_BYTES
    try:
        _models.WORKSPACE_BYTES = 512 * model._row_bytes
        tiled = model.predict(x, batch_size=552)
        assert model._tile_edges(552, 552) == [0, 552]
        _models.WORKSPACE_BYTES = 2**40
        assert same_bytes(tiled, model.predict(x, batch_size=552))
    finally:
        _models.WORKSPACE_BYTES = saved


def test_rows_too_wide_for_sixteen_tiles_keep_the_budget():
    """With room for fewer than 16 examples, predict keeps the memory
    budget, not the cut rule: tiles of the examples that fit, the last
    two of a slice joined — never a 16-example tile of a wide row."""
    model = Sequential([Conv1D(2, 9, activation="relu"), Flatten(), Dense(1)])
    model.build((40, 16), seed=0, train=TrainOptions(dtype=np.float64))
    saved = _models.WORKSPACE_BYTES
    try:
        _models.WORKSPACE_BYTES = model._row_bytes
        assert model._tile_edges(17, 40) == [*range(16), 17]
        _models.WORKSPACE_BYTES = 5 * model._row_bytes + 1
        assert model._tile_edges(50, 40) == [0, 5, 10, 15, 20, 25, 30, 40, 50]
    finally:
        _models.WORKSPACE_BYTES = saved


# ---------------------------------------------------------------------------
# who uses the helper, and what its errors look like
# ---------------------------------------------------------------------------


def conv_and_input():
    layer = built(Conv1D(4, 5, activation="relu"), (300, 3), np.float64)
    x = np.random.default_rng(1).normal(size=(6, 300, 3))
    return layer, x


def test_a_forward_off_the_main_thread_never_touches_the_helper():
    layer, x = conv_and_input()
    outputs = []
    with forced_split() as spy:
        worker = threading.Thread(target=lambda: outputs.append(layer.forward(x).copy()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert spy.puts == 0 and len(outputs) == 1
        assert same_bytes(layer.forward(x), outputs[0])
        assert spy.puts == 1


def test_one_usable_core_runs_in_one_pass(monkeypatch):
    layer, x = conv_and_input()
    with forced_split() as spy:
        monkeypatch.setattr(halves, "_CORES", 1)
        layer.forward(x, training=True)
        layer.backward(np.ones((6, 296, 4)))
        assert spy.puts == 0


def test_an_error_in_the_helpers_half_reaches_the_caller():
    seen = []

    def part(lo, hi):
        if lo > 0:
            raise KeyError("helper half")
        seen.append((lo, hi))

    with forced_split():
        with pytest.raises(KeyError, match="helper half"):
            halves.halves(part, 10, 0)
        assert seen == [(0, 5)]
        # the helper survives it
        halves.halves(lambda lo, hi: seen.append((lo, hi)), 10, 0)
    assert sorted(seen[1:]) == [(0, 5), (5, 10)]


def test_the_caller_waits_for_the_helper_even_when_its_own_half_raises():
    go, finished = threading.Event(), threading.Event()

    def part(lo, hi):
        if lo == 0:
            go.set()
            raise ValueError("caller half")
        if go.wait(timeout=60):
            finished.set()

    with forced_split():
        with pytest.raises(ValueError, match="caller half"):
            halves.halves(part, 4, 0)
        assert finished.is_set()

        def both_raise(lo, hi):
            raise (ValueError if lo == 0 else KeyError)(lo)

        with pytest.raises(KeyError) as info:
            halves.halves(both_raise, 4, 0)
        assert isinstance(info.value.__context__, ValueError)


def test_splits_stay_exact_under_a_short_switch_interval():
    """Two threads running one-pass forwards of their own layers beside
    the main thread's splits (four threads on two cores), the interpreter
    switching threads every microsecond: every output stays the
    one-pass bytes."""
    layer, x = conv_and_input()
    want = layer.forward(x).copy()
    others = [conv_and_input()[0] for _ in range(2)]
    stop, errors = threading.Event(), []

    def churn(other):
        while not stop.is_set():
            if not same_bytes(other.forward(x), want):
                errors.append(other.name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=churn, args=(other,)) for other in others]
    try:
        with forced_split() as spy:
            for thread in threads:
                thread.start()
            for _ in range(100):
                assert same_bytes(layer.forward(x), want)
            assert spy.puts == 100
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors


def _forward_in_child(layer, x, want):
    assert same_bytes(layer.forward(x), want)
    # the split ran, on a helper thread of the child's own
    assert [t.name for t in threading.enumerate()].count("repro.nn.halves") == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_a_split_forward_to_completion():
    """The child's copy of the parent's helper has no thread behind it:
    the child must start its own, not wait on that one for ever."""
    layer, x = conv_and_input()
    want = layer.forward(x).copy()
    ctx = multiprocessing.get_context("fork")
    with forced_split():
        layer.forward(x)  # the parent's helper is running and used
        child = ctx.Process(target=_forward_in_child, args=(layer, x, want))
        child.start()
        child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on its parent's helper")
    assert child.exitcode == 0


def test_a_warmed_split_nt3_step_allocates_under_a_megabyte():
    model, x, y = nt3()
    xb, yb = x[:20].copy(), y[:20].copy()
    with forced_split():
        for _ in range(2):
            model.train_on_batch(xb, yb)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.train_on_batch(xb, yb)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20
