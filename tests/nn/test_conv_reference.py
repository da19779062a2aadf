"""Conv1D / MaxPooling1D against the formulations they replaced, bit for bit.

``repro.nn.layers.conv`` gathers its own window matrices and walks the
pooling taps once; until PR 13 it let ``np.tensordot`` copy a
``sliding_window_view`` and ran ``argmax`` plus ``max`` over the pooling
window. Those formulations live on here as the oracle: every output,
cached index, parameter gradient and returned input gradient must be
``np.array_equal`` to them — never ``allclose`` — because the layers
promise the same GEMM on the same operands, only gathered faster.

The second half is the model-level contract of ``input_grad=False``:
``Sequential`` skipping layer 0's input gradient changes no weight and
no hook order.
"""

import contextlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro import hvd
from repro.candle.nt3 import NT3Benchmark
from repro.candle.p1b1 import P1B1Benchmark
from repro.candle.p1b3 import P1B3Benchmark
from repro.comms import CollectiveOptions
from repro.mpi import run_spmd
from repro.nn import (
    Activation,
    Conv1D,
    Dense,
    Flatten,
    MaxPooling1D,
    Sequential,
    get_optimizer,
)
from repro.nn import activations as _act
from repro.nn.layers import conv
from repro.nn.losses import CategoricalCrossentropy
from repro.train import TrainOptions

# ---------------------------------------------------------------------------
# the old formulations
# ---------------------------------------------------------------------------


def ref_pad_same(x, k):
    left = (k - 1) // 2
    return np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0))), left, k - 1 - left


def ref_conv_forward(xp, kernel, bias):
    win = sliding_window_view(xp, kernel.shape[0], axis=1)  # (N, L, C, K)
    return np.tensordot(win, kernel, axes=([3, 2], [0, 1])) + bias


def ref_conv_dw(xp, dy, k):
    win = sliding_window_view(xp, k, axis=1)
    return np.tensordot(win, dy, axes=([0, 1], [0, 1])).transpose(1, 0, 2)


def ref_conv_dx(dy, kernel, pad_l, pad_r):
    k = kernel.shape[0]
    n, steps, co = dy.shape
    dyp = np.zeros((n, steps + 2 * (k - 1), co), dtype=dy.dtype)
    dyp[:, k - 1 : k - 1 + steps, :] = dy
    win_dy = sliding_window_view(dyp, k, axis=1)  # (N, L_pad, co, K)
    dxp = np.tensordot(win_dy, kernel[::-1], axes=([3, 2], [0, 2]))
    return dxp[:, pad_l : dxp.shape[1] - pad_r, :]


def ref_pool(x, p):
    n, steps, c = x.shape
    out_steps = steps // p
    xw = x[:, : out_steps * p, :].reshape(n, out_steps, p, c)
    return np.max(xw, axis=2), np.argmax(xw, axis=2)


def ref_pool_dx(in_shape, idx, dy, p):
    n, out_steps, c = dy.shape
    dxw = np.zeros((n, out_steps, p, c), dtype=dy.dtype)
    ni, li, ci = np.ogrid[:n, :out_steps, :c]
    dxw[ni, li, idx, ci] = dy
    dx = np.zeros(in_shape, dtype=dy.dtype)
    dx[:, : out_steps * p, :] = dxw.reshape(n, out_steps * p, c)
    return dx


def built(layer, in_shape, dtype, seed=5):
    layer.dtype = np.dtype(dtype)
    layer.build(in_shape, np.random.default_rng(seed))
    return layer


# ---------------------------------------------------------------------------
# Conv1D
# ---------------------------------------------------------------------------

STEPS = 29

#: ``conv.WINDOW_BLOCK_BYTES`` each case runs at: today's, which these
#: shapes never fill, and one byte, which leaves every window tile at the
#: 16-row floor, so each forward and dx crosses several tile edges and
#: ends in a remainder tile
BLOCK_BYTES = [conv.WINDOW_BLOCK_BYTES, 1]


@contextlib.contextmanager
def window_block(nbytes):
    """``conv.WINDOW_BLOCK_BYTES`` patched to ``nbytes``."""
    saved = conv.WINDOW_BLOCK_BYTES
    conv.WINDOW_BLOCK_BYTES = nbytes
    try:
        yield
    finally:
        conv.WINDOW_BLOCK_BYTES = saved


# filters 1, 2 and 5 are where a transposed-operand GEMM (cols.T @ dy)
# stops being the tensordot's sum on OpenBLAS; 16 is NT3's
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("activation", [None, "relu"])
@pytest.mark.parametrize("filters", [1, 2, 5, 16])
@pytest.mark.parametrize("kernel_size", [1, 3, 18])
@pytest.mark.parametrize("channels", [1, 16])
@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv1d_is_the_tensordot_formulation(
    padding, channels, kernel_size, filters, activation, dtype
):
    layer = built(
        Conv1D(filters, kernel_size, activation=activation, padding=padding),
        (STEPS, channels), dtype,
    )
    rng = np.random.default_rng(kernel_size * 100 + channels)
    layer.params["bias"][...] = rng.normal(size=filters)
    kernel, bias = layer.params["kernel"], layer.params["bias"]
    # a full batch, then the short last batch of an epoch: the padded-dy
    # scratch buffer is reallocated and its margins must be zero again
    for nbytes in BLOCK_BYTES:
        for n in (6, 4):
            x = rng.normal(size=(n, STEPS, channels)).astype(dtype)
            xp, left, right = ref_pad_same(x, kernel_size) if padding == "same" else (x, 0, 0)
            z = ref_conv_forward(xp, kernel, bias)
            want = z if activation is None else _act.get(activation)[0](z)
            dy = rng.normal(size=want.shape).astype(dtype)
            dz = dy if activation is None else dy * _act.get(activation)[1](z, want)

            with window_block(nbytes):
                got = layer.forward(x, training=True)
                assert got.dtype == dtype and np.array_equal(got, want)
                assert np.array_equal(layer.forward(x, training=False), want)

                dx = layer.backward(dy)
                assert np.array_equal(layer.grads["kernel"], ref_conv_dw(xp, dz, kernel_size))
                assert np.array_equal(layer.grads["bias"], dz.sum(axis=(0, 1)))
                assert dx.dtype == dtype and dx.shape == x.shape
                assert np.array_equal(dx, ref_conv_dx(dz, kernel, left, right))

                # the parameter-only form: same gradients, no dx
                layer.grads.clear()
                assert layer.backward(dy, input_grad=False) is None
                assert np.array_equal(layer.grads["kernel"], ref_conv_dw(xp, dz, kernel_size))
                assert np.array_equal(layer.grads["bias"], dz.sum(axis=(0, 1)))


# one row, one output step, both: the shapes where numpy can reshape the
# window view without gathering, so the oracle's GEMM reads a transposed
# or overlapping view and the layer has to hand BLAS the same thing
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("filters", [1, 5])
@pytest.mark.parametrize(
    "n,steps,channels,kernel_size",
    [(1, 29, 16, 3), (1, 29, 1, 3), (6, 18, 1, 18), (6, 18, 16, 18), (1, 18, 1, 18), (1, 9, 16, 1)],
)
def test_conv1d_degenerate_geometry(n, steps, channels, kernel_size, filters, dtype):
    layer = built(Conv1D(filters, kernel_size), (steps, channels), dtype)
    rng = np.random.default_rng(n + steps)
    x = rng.normal(size=(n, steps, channels)).astype(dtype)
    kernel, bias = layer.params["kernel"], layer.params["bias"]
    want = ref_conv_forward(x, kernel, bias)
    assert np.array_equal(layer.forward(x, training=True), want)
    dy = rng.normal(size=want.shape).astype(dtype)
    dx = layer.backward(dy)
    assert np.array_equal(layer.grads["kernel"], ref_conv_dw(x, dy, kernel_size))
    assert np.array_equal(dx, ref_conv_dx(dy, kernel, 0, 0))


def test_conv1d_takes_a_strided_upstream_gradient():
    """dy arriving as a non-contiguous view (the slice a 'same' Conv1D
    above it returns) goes through the same sums."""
    layer = built(Conv1D(5, 3), (20, 16), np.float64)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 20, 16))
    layer.forward(x, training=True)
    dy = rng.normal(size=(4, 24, 5))[:, 3:21, :]
    assert not dy.flags.c_contiguous
    dx = layer.backward(dy)
    assert np.array_equal(layer.grads["kernel"], ref_conv_dw(x, dy, 3))
    assert np.array_equal(dx, ref_conv_dx(dy, layer.params["kernel"], 0, 0))


# ---------------------------------------------------------------------------
# MaxPooling1D
# ---------------------------------------------------------------------------


# (pool, steps): 2 and 9 are NT3's; 4 over 30 steps drops a tail of 2;
# 1 is the degenerate window
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("pool,steps", [(2, 28), (9, 27), (4, 30), (9, 30), (1, 7)])
def test_maxpooling_is_argmax_plus_max(pool, steps, dtype):
    layer = built(MaxPooling1D(pool), (steps, 16), dtype)
    rng = np.random.default_rng(pool)
    for n in (6, 4):
        x = rng.normal(size=(n, steps, 16)).astype(dtype)
        x[0] = np.round(x[0])  # ties: the first maximum wins, as argmax has it
        x[1] = 0.0
        want, want_idx = ref_pool(x, pool)
        got = layer.forward(x, training=True)
        assert got.dtype == dtype and np.array_equal(got, want)
        in_shape, idx = layer._cache
        assert in_shape == x.shape and np.array_equal(idx, want_idx)
        dy = rng.normal(size=want.shape).astype(dtype)
        assert np.array_equal(layer.backward(dy), ref_pool_dx(x.shape, want_idx, dy, pool))


@pytest.mark.parametrize("tap", [0, 1, 4, 8])
def test_maxpooling_surfaces_nan_like_np_max(tap):
    """A diverged run must read NaN, not a finite loss: a window holding
    a NaN pools to NaN wherever in the window it sits."""
    layer = built(MaxPooling1D(9), (27, 3), np.float64)
    x = np.random.default_rng(1).normal(size=(2, 27, 3))
    x[0, 9 + tap, 1] = np.nan
    x[1, 18 + tap, 2] = np.nan
    want, _ = ref_pool(x, 9)
    got = layer.forward(x)
    assert np.isnan(want).sum() == 2
    assert np.array_equal(got, want, equal_nan=True)


def test_maxpooling_pool2_surfaces_nan():
    layer = built(MaxPooling1D(2), (4, 1), np.float64)
    x = np.array([[[np.nan], [1.0], [2.0], [np.nan]]])
    assert np.isnan(layer.forward(x)).all()


# ---------------------------------------------------------------------------
# memory: no window matrix outlives the call that built it
# ---------------------------------------------------------------------------


def _owned_nbytes(obj, seen):
    """nbytes of every distinct buffer reachable from a cache entry."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return []
        seen.add(id(obj))
        return [obj.nbytes]
    if isinstance(obj, (tuple, list)):
        return [b for item in obj for b in _owned_nbytes(item, seen)]
    return []


def test_no_conv1d_holds_a_window_matrix_after_predict_or_a_step():
    """Kept through ``predict`` (256 rows at a time), NT3's window
    matrices were +76 MB of peak RSS on the ``nt3_train`` benchmark."""
    model = Sequential(
        [
            Conv1D(4, 6, activation="relu"),
            MaxPooling1D(2),
            Conv1D(4, 3, activation="relu", padding="same"),
            Flatten(),
            Dense(2),
            Activation("softmax"),
        ]
    )
    model.build((70, 1), seed=1)
    model.compile("sgd", "categorical_crossentropy", lr=0.01)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 70, 1))
    y = np.eye(2)[rng.integers(0, 2, size=64)]

    def check(rows):
        for conv in (model.layers[0], model.layers[2]):
            out_steps, filters = conv.output_shape
            k, c = conv.kernel_size, conv.input_shape[1]
            assert k * c > filters  # so the bound below excludes z and y
            window = rows * out_steps * k * c * x.itemsize
            held = _owned_nbytes(conv._cache, set()) + _owned_nbytes(
                list(conv._scratch.values()), set())
            assert held and max(held) < window, (conv.name, held, window)

    model.predict(x, batch_size=64)
    check(64)
    model.train_on_batch(x[:20], y[:20])
    check(20)


# ---------------------------------------------------------------------------
# Sequential: skipping layer 0's input gradient changes no bit
# ---------------------------------------------------------------------------


def full_backward(model, y_true, y_pred, x_shape):
    """``Sequential._backward`` with every layer asked for its input
    gradient — the loop ``test_gradients.py`` writes."""
    layers = list(model.layers)
    if isinstance(model.loss, CategoricalCrossentropy) and isinstance(layers[-1], Activation):
        grad = model.loss.fused_softmax_grad(y_true, y_pred)
        layers.pop()
    else:
        grad = model.loss.grad(y_true, y_pred)
    for layer in reversed(layers):
        grad = layer.backward(grad)
        model._notify_backward(layer)
    assert grad.shape == x_shape  # the gradient Sequential no longer computes


def use_full_backward(model, x_shape):
    model._backward = lambda y, y_pred: full_backward(model, y, y_pred, x_shape)


def candle_case(name):
    bench = {
        "nt3": lambda: NT3Benchmark(scale=0.003),
        "p1b1": lambda: P1B1Benchmark(scale=0.003),
        "p1b3_conv": lambda: P1B3Benchmark(scale=0.05, conv=True),
    }[name]()
    data = bench.synth_arrays(np.random.default_rng(7))
    x = data.x_train[:32]
    if name == "p1b3_conv":
        x = bench.prepare_x(x)
    return bench, x, data.y_train[:32]


def compiled(bench, train, seed=4):
    model = bench.build_model(seed=seed, train=train)
    model.compile(
        get_optimizer(bench.spec.optimizer, lr=bench.spec.learning_rate),
        bench.loss_and_metrics()[0],
    )
    return model


@pytest.mark.parametrize("name", ["nt3", "p1b1", "p1b3_conv"])
def test_ten_steps_equal_the_full_backward_loop(name):
    bench, x, y = candle_case(name)
    train = TrainOptions()
    model, reference = compiled(bench, train), compiled(bench, train)
    assert model.layers[0].params  # layer 0 is Conv1D / Dense / LocallyConnected1D
    use_full_backward(reference, (8,) + x.shape[1:])
    fired, fired_ref = [], []
    model._backward_hooks.append(lambda layer: fired.append(layer.name))
    reference._backward_hooks.append(lambda layer: fired_ref.append(layer.name))
    for step in range(10):
        rows = slice(step % 4 * 8, step % 4 * 8 + 8)
        logs = model.train_on_batch(x[rows], y[rows])
        logs_ref = reference.train_on_batch(x[rows], y[rows])
        assert logs["loss"] == logs_ref["loss"]
    for (key, a), b in zip(model.named_parameters().items(), reference.get_weights()):
        assert np.array_equal(a, b), key
    assert np.array_equal(model.predict(x), reference.predict(x))
    # one hook per layer per step, output to input, layer 0's last
    assert fired == fired_ref
    per_step = [layer.name for layer in reversed(model.layers)]
    if name == "nt3":
        per_step = per_step[1:]  # the fused softmax Activation has no backward
    assert fired == per_step * 10 and per_step[-1] == model.layers[0].name


def test_world2_overlap_equals_the_serialized_full_backward_step():
    """Overlap releases a bucket when a layer's hook fires; layer 0's
    still fires, last, with its gradients final."""
    bench, x, y = candle_case("nt3")
    base = TrainOptions(collective=CollectiveOptions(fusion_bytes=2048))

    def fit(train, full):
        def worker(comm):
            hvd.init(comm, options=train.collective)
            try:
                model = bench.build_model(seed=11 + comm.rank, train=train)
                model.compile(
                    hvd.DistributedOptimizer(get_optimizer("sgd", lr=0.01), train=train),
                    "categorical_crossentropy",
                )
                if full:
                    use_full_backward(model, (8,) + x.shape[1:])
                fired = []
                model._backward_hooks.append(lambda layer: fired.append(layer.name))
                shard = slice(comm.rank * 16, comm.rank * 16 + 16)
                model.fit(
                    x[shard], y[shard], batch_size=8, epochs=5, shuffle=False,
                    train=train, callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
                )
                return model.get_weights(), fired
            finally:
                hvd.shutdown()

        return run_spmd(2, worker)

    overlapped = fit(base.evolve(overlap=True), full=False)
    serialized = fit(base, full=True)
    for weights, fired in overlapped:
        for a, b in zip(weights, serialized[0][0]):
            assert np.array_equal(a, b)
        assert fired == serialized[0][1]
        assert len(fired) == 10 * 10 and fired[-1] == "conv1d_0"
