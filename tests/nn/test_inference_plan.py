"""``repro.nn``'s memory plan against the allocate-as-you-go stack it replaced.

Until this suite's PR every layer allocated what it returned, ``predict``
ran the caller's 256-row slices through the stack whole and
``np.concatenate``d them, and inference computed (and kept) everything a
backward pass would need. Now layers write into capacity-sized work
buffers, ``predict`` tiles a slice whose widest buffer would pass
``WORKSPACE_BYTES``, and ``MaxPooling1D`` finds its winning taps only when
a backward asks. None of that may show in a byte.

The old stack lives on here as the oracle (``oracle_*``): plain functions,
every intermediate a fresh array, the formulas of the parent commit (the
Conv1D / pooling ones are ``test_conv_reference``'s). Comparisons are
``dtype`` + ``tobytes()``, never ``allclose``.

Hypothesis budget: 40 derandomized examples per property in tier-1, 600
with ``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.candle import get_benchmark
from repro.nn import (
    Activation,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    LocallyConnected1D,
    MaxPooling1D,
    Sequential,
    get_optimizer,
)
from repro.nn import models as _models
from repro.nn.layers import conv as _conv
from repro.nn.layers.base import Layer
from repro.train import TrainOptions
from tests.nn.test_conv_reference import (
    built,
    ref_conv_dw,
    ref_conv_dx,
    ref_conv_forward,
    ref_pad_same,
    ref_pool,
    ref_pool_dx,
)

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


def same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the oracle: the parent's stack, allocating as it goes
# ---------------------------------------------------------------------------


def _old_sigmoid(x):
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _old_softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


OLD_ACT = {
    None: lambda x: x,
    "linear": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": _old_sigmoid,
    "tanh": np.tanh,
    "softmax": _old_softmax,
}
OLD_ACT_GRAD = {
    "linear": lambda z, y: np.ones_like(z),
    "relu": lambda z, y: (z > 0.0).astype(z.dtype),
    "sigmoid": lambda z, y: y * (1.0 - y),
    "tanh": lambda z, y: 1.0 - y * y,
}


def _conv_input(layer, x):
    if layer.padding == "same":
        return ref_pad_same(x, layer.kernel_size)
    return x, 0, 0


def oracle_layer(layer, x):
    """``(pre-activation, output)`` of one inference-mode layer."""
    act = OLD_ACT[getattr(layer, "activation_name", None)]
    if isinstance(layer, Dense):
        z = x @ layer.params["kernel"]
        if layer.use_bias:
            z = z + layer.params["bias"]
        return z, act(z)
    if isinstance(layer, Conv1D):
        bias = layer.params["bias"] if layer.use_bias else 0.0
        z = ref_conv_forward(_conv_input(layer, x)[0], layer.params["kernel"], bias)
        return z, act(z)
    if isinstance(layer, LocallyConnected1D):
        n, k = len(x), layer.kernel_size
        win = sliding_window_view(x, k, axis=1).transpose(0, 1, 3, 2)
        z = np.einsum("nlf,lfo->nlo", win.reshape(n, win.shape[1], -1), layer.params["kernel"])
        if layer.use_bias:
            z = z + layer.params["bias"]
        return z, act(z)
    if isinstance(layer, MaxPooling1D):
        return None, ref_pool(x, layer.pool_size)[0]
    if isinstance(layer, Flatten):
        return None, x.reshape(len(x), -1)
    if isinstance(layer, Dropout):
        return None, x
    if isinstance(layer, Activation):
        return x, act(x)
    raise TypeError(f"no oracle for {type(layer).__name__}")


def oracle_forward(model, x, tape=None):
    h = x
    for layer in model.layers:
        z, y = oracle_layer(layer, h)
        if tape is not None:
            tape.append((h, z, y))
        h = y
    return h


def oracle_predict(model, x, edges):
    """The parent's ``predict``: one whole forward per slice, concatenated."""
    return np.concatenate(
        [oracle_forward(model, x[lo:hi]) for lo, hi in zip(edges, edges[1:])], axis=0
    )


def slices_of(rows, batch_size=256):
    return [*range(0, rows, batch_size), rows]


def oracle_gradients(model, x, y_true):
    """Parameter gradients of an inference-mode forward followed by the
    parent's backward, for stacks ending in softmax + cross-entropy."""
    tape = []
    y_pred = oracle_forward(model, x, tape)
    assert isinstance(model.layers[-1], Activation) and model.layers[-1].is_softmax
    grad = (y_pred - y_true) / y_true.shape[0]
    grads = {}
    for layer, (h, z, y) in reversed(list(zip(model.layers[:-1], tape))):
        name = getattr(layer, "activation_name", None)
        if name is not None and not isinstance(layer, Activation):
            grad = grad * OLD_ACT_GRAD[name](z, y)
        if isinstance(layer, Dense):
            grads[f"{layer.name}/kernel"] = h.T @ grad
            grads[f"{layer.name}/bias"] = grad.sum(axis=0)
            grad = grad @ layer.params["kernel"].T
        elif isinstance(layer, Conv1D):
            xp, left, right = _conv_input(layer, h)
            grads[f"{layer.name}/kernel"] = ref_conv_dw(xp, grad, layer.kernel_size)
            grads[f"{layer.name}/bias"] = grad.sum(axis=(0, 1))
            grad = ref_conv_dx(grad, layer.params["kernel"], left, right)
        elif isinstance(layer, MaxPooling1D):
            grad = ref_pool_dx(h.shape, ref_pool(h, layer.pool_size)[1], grad, layer.pool_size)
        elif isinstance(layer, Flatten):
            grad = grad.reshape(h.shape)
        else:
            assert isinstance(layer, Dropout)
    return grads


# ---------------------------------------------------------------------------
# the four CANDLE models at the end-to-end benchmark's geometries
# ---------------------------------------------------------------------------

E2E = {
    "nt3": dict(scale=0.02, sample_scale=1.0),      # nt3_train: 1,209 features
    "p1b1": dict(scale=0.1, sample_scale=0.3),      # p1b1_hvd_w2: 6,048 features
    "p1b2": dict(scale=0.05),                       # serve_p1b2_open: 1,410 features
    "p1b3": dict(scale=0.05, conv=True),            # test_conv_reference's
}
LOSS = {"nt3": "categorical_crossentropy", "p1b1": "mse", "p1b2": "categorical_crossentropy",
        "p1b3": "mse"}
_cases: dict = {}


def e2e_case(name, dtype):
    """``(bench, model, x, y)``: the workload's model, compiled, and 600
    rows of its data; built once per (name, dtype)."""
    key = name, np.dtype(dtype).name
    if key not in _cases:
        bench = get_benchmark(name, **E2E[name])
        data = bench.synth_arrays(np.random.default_rng(11))
        x = np.concatenate([data.x_test, data.x_train])[:600]
        y = np.concatenate([data.y_test, data.y_train])[:600]
        if name == "p1b3":
            x = bench.prepare_x(x)
        model = bench.build_model(seed=3, train=TrainOptions(dtype=dtype))
        model.compile(
            get_optimizer(bench.spec.optimizer, lr=bench.spec.learning_rate), LOSS[name]
        )
        _cases[key] = bench, model, x.astype(dtype), y.astype(dtype)
    return _cases[key]


def plan_tile(model, batch_size=256):
    edges = model._tile_edges(10_000, batch_size)
    return edges[1] - edges[0]


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("name", sorted(E2E))
def test_predict_is_the_parents_256_row_predict(name, dtype):
    """Tiling inside a slice, the buffers, in-place bias + activation and
    the skipped argmax: none of it shows in ``predict``'s bytes."""
    _, model, x, _ = e2e_case(name, dtype)
    tile = plan_tile(model)
    assert (tile < 256) == (name == "nt3")  # Dense models keep the caller's batch
    for rows in sorted({1, tile - 1, tile, tile + 1, 280, 2 * tile + 7}):
        got = model.predict(x[:rows])
        assert same_bytes(got, oracle_predict(model, x[:rows], slices_of(rows))), rows


def test_the_plan_for_the_e2e_geometries():
    """Per-row bytes are the widest buffer a layer fills; NT3's second
    Conv1D window matrix sets its tile, P1B1's reconstruction layer does
    not come near the budget."""
    _, nt3, _, _ = e2e_case("nt3", np.float64)
    assert nt3._row_bytes == nt3.layers[2].workspace_row_bytes() == 588 * 9 * 16 * 8
    assert nt3._tile_edges(280, 256) == [*range(0, 257, 32), 280]
    # a remainder under 16 rows joins the tile before it ...
    assert nt3._tile_edges(300, 256) == [*range(0, 257, 32), 300]
    assert nt3._tile_edges(33, 256) == [0, 33]
    # ... but never crosses the caller's slices
    assert nt3._tile_edges(260, 256) == [*range(0, 257, 32), 260]
    assert nt3._tile_edges(70, 20) == [0, 20, 40, 60, 70]
    _, nt3_f32, _, _ = e2e_case("nt3", np.float32)
    assert plan_tile(nt3_f32) == 64
    _, p1b1, _, _ = e2e_case("p1b1", np.float64)
    assert p1b1._row_bytes == 6048 * 8
    assert p1b1._tile_edges(600, 256) == [0, 256, 512, 600]


@pytest.mark.parametrize("batch_size", [0, -3])
def test_nonpositive_batch_size_is_a_value_error(batch_size):
    _, model, x, y = e2e_case("p1b2", np.float64)
    with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch_size}"):
        model.predict(x[:8], batch_size=batch_size)
    with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch_size}"):
        model.evaluate(x[:8], y[:8], batch_size=batch_size)
    with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch_size}"):
        model.fit(x[:8], y[:8], batch_size=batch_size)


@pytest.mark.parametrize("rows", [1, 7, 32])
def test_a_serving_batch_is_exactly_one_forward(rows, monkeypatch):
    """The ``serve_p1b2_open`` replay recomputes each dispatched batch with
    ``predict(feats, batch_size=len(feats))`` and compares bit for bit with
    what the replica answered: that has to stay one GEMM per layer."""
    _, model, x, _ = e2e_case("p1b2", np.float64)
    feats = x[100 : 100 + rows]
    want = model._forward(feats, training=False).copy()
    calls = []
    forward = model._forward
    monkeypatch.setattr(
        model, "_forward", lambda x, training: calls.append(len(x)) or forward(x, training)
    )
    got = model.predict(feats, batch_size=len(feats))
    assert calls == [rows] and same_bytes(got, want)
    assert same_bytes(got, oracle_forward(model, feats))


# ---------------------------------------------------------------------------
# inference skips bookkeeping, and a backward that follows still works
# ---------------------------------------------------------------------------


def test_nt3_gradients_after_an_inference_forward_are_the_parents():
    """``nn.gradcheck`` runs ``_forward(x, training=False)`` and then
    ``_backward``: MaxPooling1D has to derive the winning taps it did not
    compute."""
    _, model, x, y = e2e_case("nt3", np.float64)
    y_pred = model._forward(x[:24], training=False)
    assert all(layer._cache[1] is None for layer in model.layers if isinstance(layer, MaxPooling1D))
    model._backward(y[:24], y_pred)
    want = oracle_gradients(model, x[:24], y[:24])
    got = model.named_gradients()
    assert sorted(got) == sorted(want)
    for key in want:
        assert same_bytes(got[key], want[key]), key


def _pool_input(rng, n, steps, c, dtype):
    x = rng.normal(size=(n, steps, c)).astype(dtype)
    x[0] = np.round(x[0])          # ties
    x[1] = 0.0                     # all ties
    x[2, ::5, 0] = np.nan          # NaN somewhere in most windows
    x[3, :, 1] = np.nan            # NaN everywhere
    return x


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("pool,steps", [(1, 7), (2, 28), (9, 27), (9, 30), (4, 30)])
def test_maxpooling_inference_is_its_training_output(pool, steps, dtype):
    layer = built(MaxPooling1D(pool), (steps, 3), dtype)
    rng = np.random.default_rng(pool)
    for n in (6, 4):
        x = _pool_input(rng, n, steps, 3, dtype)
        trained = layer.forward(x, training=True).copy()
        idx = layer._cache[1].copy()
        dy = rng.normal(size=trained.shape).astype(dtype)
        dx = layer.backward(dy).copy()

        inferred = layer.forward(x, training=False)
        assert layer._cache[1] is None  # no winning tap computed
        assert same_bytes(inferred, trained)
        assert same_bytes(inferred, np.max(
            x[:, : steps // pool * pool].reshape(n, -1, pool, 3), axis=2))
        # the backward that follows derives the same taps, NaN windows included
        assert same_bytes(layer.backward(dy), dx)
        assert same_bytes(layer._pool(x, want_idx=True)[1], idx)


# ---------------------------------------------------------------------------
# Hypothesis: small Conv1D / pooling / Dense stacks under a tiny budget
# ---------------------------------------------------------------------------

ACTS = st.sampled_from([None, "relu", "tanh", "sigmoid"])


@st.composite
def stacks(draw):
    steps = draw(st.integers(6, 40))
    channels = draw(st.integers(1, 3))
    layers, length = [], steps
    for _ in range(draw(st.integers(0, 2))):
        kernel = draw(st.integers(1, min(5, length)))
        padding = draw(st.sampled_from(["valid", "same"]))
        layers.append(Conv1D(draw(st.integers(1, 5)), kernel, activation=draw(ACTS),
                             padding=padding, use_bias=draw(st.booleans())))
        length = length if padding == "same" else length - kernel + 1
        pool = draw(st.integers(1, 3))
        if draw(st.booleans()) and length >= pool:
            layers.append(MaxPooling1D(pool))
            length //= pool
    layers.append(Flatten())
    for _ in range(draw(st.integers(1, 2))):
        layers.append(Dense(draw(st.integers(1, 6)), activation=draw(ACTS)))
        if draw(st.booleans()):
            layers.append(Dropout(0.3))
    layers += [Dense(3), Activation("softmax")]
    return dict(
        layers=layers, input_shape=(steps, channels),
        dtype=draw(st.sampled_from([np.float64, np.float32])),
        seed=draw(st.integers(0, 2**16)),
        rows=draw(st.integers(1, 70)),
        batch_size=draw(st.sampled_from([1, 7, 16, 40, 256])),
        # widest rows the budget admits: forces tiles of 1 .. beyond the batch
        budget_rows=draw(st.sampled_from([1, 5, 16, 33, 1000])),
    )


@FUZZ
@given(stacks())
def test_predict_is_the_oracle_over_its_tiles(case):
    """For any stack, budget and caller batch: ``predict`` is the old
    whole-slice forward run over ``_tile_edges`` — tiles that cover the
    rows in order, stay inside the caller's slices and inside the budget
    (plus the short remainder a last tile may absorb) — and a training
    step between two predicts disturbs neither."""
    model = Sequential(case["layers"])
    model.build(case["input_shape"], seed=case["seed"], train=TrainOptions(dtype=case["dtype"]))
    model.compile("sgd", "categorical_crossentropy", lr=0.01)
    rng = np.random.default_rng(case["seed"])
    rows, batch_size = case["rows"], case["batch_size"]
    x = rng.normal(size=(rows,) + case["input_shape"]).astype(case["dtype"])
    y = np.eye(3, dtype=case["dtype"])[rng.integers(0, 3, size=rows)]
    budget = case["budget_rows"] * model._row_bytes
    saved = _models.WORKSPACE_BYTES
    _models.WORKSPACE_BYTES = budget
    try:
        edges = model._tile_edges(rows, batch_size)
        assert edges[0] == 0 and edges[-1] == rows and edges == sorted(set(edges))
        assert set(slices_of(rows, batch_size)) <= set(edges)
        longest = max(hi - lo for lo, hi in zip(edges, edges[1:]))
        assert longest <= min(batch_size, max(1, case["budget_rows"]) + 15)
        got = model.predict(x, batch_size=batch_size)
        assert same_bytes(got, oracle_predict(model, x, edges))

        # gradients of an inference-mode forward, then a real step
        y_pred = model._forward(x, training=False)
        model._backward(y, y_pred)
        want = oracle_gradients(model, x, y)
        for key, grad in model.named_gradients().items():
            assert same_bytes(grad, want[key]), key
        model.train_on_batch(x, y)
        assert same_bytes(model.predict(x, batch_size=batch_size), oracle_predict(model, x, edges))
    finally:
        _models.WORKSPACE_BYTES = saved


# ---------------------------------------------------------------------------
# Layer.scratch: capacity, not shape
# ---------------------------------------------------------------------------


def test_scratch_is_sized_by_capacity():
    """A ragged last batch (P1B1: 8 x 50 + 5 per rank-epoch; a 280-row
    evaluate in 32-row tiles: 8 x 32 + 24) used to rebuild, and zero-fill,
    every buffer twice per pass."""
    layer = Layer()
    first = layer.scratch("y", (32, 5, 2), np.float64, zero=False)
    owner = layer._scratch["y"]
    assert first is owner and not first.any()
    first[...] = 7.0
    for rows in (24, 32, 24):
        view = layer.scratch("y", (rows, 5, 2), np.float64, zero=False)
        assert layer._scratch["y"] is owner            # allocated once
        assert view.shape == (rows, 5, 2) and view.flags.c_contiguous
        assert np.shares_memory(view, owner) and (view == 7.0).all()  # not re-zeroed
    # zero=True re-zeroes the view handed out, and only it
    view = layer.scratch("y", (24, 5, 2), np.float64, zero=True)
    assert not view.any() and (owner[24:] == 7.0).all()
    # growth, a new per-row shape and a new dtype each start a zeroed buffer
    for shape, dtype in (((40, 5, 2), np.float64), ((40, 5, 3), np.float64),
                         ((40, 5, 3), np.float32)):
        owner[...] = 7.0
        grown = layer.scratch("y", shape, dtype, zero=False)
        assert grown is not owner and grown.shape == shape and grown.dtype == dtype
        assert not grown.any()
        owner = grown


def test_a_ragged_epoch_and_a_ragged_evaluate_allocate_each_buffer_once():
    _, model, x, y = e2e_case("p1b2", np.float64)

    def owners():
        sets = [layer._scratch for layer in model.layers] + model._tile_buffers
        return [{key: id(buf) for key, buf in buffers.items()} for buffers in sets]

    model.fit(x[:55], y[:55], batch_size=10, epochs=1)
    model.evaluate(x[:75], y[:75], batch_size=20)
    first = owners()
    model.fit(x[:55], y[:55], batch_size=10, epochs=2)
    model.evaluate(x[:75], y[:75], batch_size=20)
    assert owners() == first and any(first)


# ---------------------------------------------------------------------------
# allocation: counted with tracemalloc, never timed
# ---------------------------------------------------------------------------


def traced_peak(fn) -> int:
    """Peak bytes allocated above the starting level while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,batch", [("nt3", 20), ("p1b1", 50)])
def test_a_warmed_training_step_allocates_under_a_megabyte(name, batch):
    """``nn.alloc_kb_per_step`` of the traced benchmark pass: 28,665 KB on
    ``nt3_train`` and ~8,000 on ``p1b1_hvd_w2`` before this suite's PR."""
    _, model, x, y = e2e_case(name, np.float64)
    xb, yb = x[:batch].copy(), y[:batch].copy()
    for _ in range(2):
        model.train_on_batch(xb, yb)
    assert traced_peak(lambda: model.train_on_batch(xb, yb)) < 1 << 20


def test_a_warmed_nt3_evaluate_allocates_its_result_only():
    """One 256-row window matrix of ``conv1d_2`` was 173 MB."""
    _, model, x, y = e2e_case("nt3", np.float64)
    model.evaluate(x[:280], y[:280])
    assert traced_peak(lambda: model.evaluate(x[:280], y[:280])) < 1 << 20


def _held(model):
    """Bytes of every work buffer the model owns: (fit's, predict's, shared)."""
    fit = sum(buf.nbytes for layer in model.layers for buf in layer._scratch.values())
    tile = sum(buf.nbytes for buffers in model._tile_buffers for buf in buffers.values())
    shared = sum(buf.nbytes for buf in model.layers[0]._shared.values())
    return fit, tile, shared


def test_what_predict_leaves_behind_is_sized_by_the_tile_not_the_input():
    bench, _, x, _ = e2e_case("nt3", np.float64)
    model = bench.build_model(seed=1)
    model.predict(x[:280])
    fit, tile, shared = _held(model)
    # predict works in its own buffers: the training set is untouched ...
    assert fit == 0 and all(not layer._scratch for layer in model.layers)
    # ... the window matrices stream through one block per thread of the
    # split (two threads), held by the model ...
    rows = plan_tile(model)
    assert 0 < shared <= 2 * _conv.WINDOW_BLOCK_BYTES
    assert all(layer._shared is model.layers[0]._shared for layer in model.layers)
    # ... and no layer's buffer is as large as its tile of windows
    assert 0 < max(buf.nbytes for buffers in model._tile_buffers for buf in buffers.values()) \
        < model._row_bytes * rows
    model.predict(x[:600])
    assert _held(model) == (fit, tile, shared)


def test_a_fit_step_gathers_only_dw_whole():
    """Forward and dx windows pass through one block per thread of the
    split; the dW gather (``cols`` and the channel-first ``xt``) is the
    only window matrix held whole."""
    bench, _, x, y = e2e_case("nt3", np.float64)
    model = bench.build_model(seed=1)
    model.compile(get_optimizer("sgd", lr=0.001), "categorical_crossentropy")
    model.train_on_batch(x[:20].copy(), y[:20].copy())
    shared = model.layers[0]._shared
    blocks = {"block", "block_helper"} & set(shared)
    assert "block" in blocks and set(shared) - blocks == {"cols", "xt"}
    assert all(shared[slot].nbytes <= _conv.WINDOW_BLOCK_BYTES for slot in blocks)
