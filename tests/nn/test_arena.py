"""ParameterArena: slab layout, fused-optimizer bit-identity, round-trips.

The contract under test is strict: the fused slab kernels must produce
*bitwise* the same weights as the base optimizer's per-parameter
``apply_gradients`` over the same arena's views, step for step; and the
zero-copy distributed step must equal its serial oracle
(``tests/hvd/step_oracle``).
"""

import warnings

import numpy as np
import pytest

from repro import hvd
from repro.mpi import run_spmd
from repro.nn import (
    Activation,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPooling1D,
    ParameterArena,
    Sequential,
)
from repro.nn.arena import fusion_plan
from repro.nn.optimizers import SGD, Adam, Optimizer, RMSprop
from repro.nn.serialization import (
    capture_rng_state,
    load_checkpoint,
    restore_rng_state,
    save_checkpoint,
)
from repro.train import TrainOptions
from tests.hvd.test_step_oracle import distributed, serial


def nt3_shaped(seed=0, dtype=None):
    """A miniature of NT3's conv→pool→dense stack (same layer types)."""
    model = Sequential(
        [
            Conv1D(4, 3, activation="relu"),
            MaxPooling1D(2),
            Flatten(),
            Dense(16, activation="relu"),
            Dropout(0.1),
            Dense(3),
            Activation("softmax"),
        ]
    )
    model.build((24, 1), seed=seed, train=TrainOptions(dtype=dtype))
    return model


def per_param_step(model, x, y):
    """``train_on_batch`` with the name-keyed update in place of the
    fused one."""
    model._backward(y, model._forward(x, training=True))
    model.optimizer.apply_gradients(model.named_parameters(), model.named_gradients())


def class_data(rng, n=32, steps=24, classes=3):
    x = rng.normal(size=(n, steps, 1))
    y = np.eye(classes)[rng.integers(0, classes, size=n)]
    return x, y


# -- layout ----------------------------------------------------------------


def test_param_and_grad_views_share_slabs():
    model = nt3_shaped()
    arena = model.arena
    assert arena is not None
    for name, arr in model.named_parameters().items():
        assert np.shares_memory(arr, arena.params_flat), name
    for layer in model.layers:
        for key, g in layer.grads.items():
            assert np.shares_memory(g, arena.grads_flat), f"{layer.name}/{key}"


def test_layout_sorted_and_contiguous():
    model = nt3_shaped()
    arena = model.arena
    assert arena.names == sorted(arena.names)
    offset = 0
    for name, sl, shape in arena.entries():
        assert sl.start == offset
        assert sl.stop - sl.start == int(np.prod(shape))
        offset = sl.stop
    assert offset == arena.size == model.count_params()


def test_build_without_arena(rng):
    """A model with no parameters is built without an arena."""
    model = Sequential([Activation("relu")])
    model.build((3,))
    assert model.arena is None
    model.compile("sgd", "mse")
    x = rng.normal(size=(4, 3))
    model.train_on_batch(x, x)  # nothing to update


def test_arena_values_preserved_on_adoption():
    model = nt3_shaped(seed=7)
    before = model.get_weights()
    arena = ParameterArena.adopt(model)
    for arr, want in zip(model.named_parameters().values(), before):
        assert np.shares_memory(arr, arena.params_flat)
        assert np.array_equal(arr, want)


def test_rejects_non_float_dtype():
    with pytest.raises(ValueError, match="floating"):
        TrainOptions(dtype=np.int64)


def test_fusion_groups_match_fusion_plan():
    model = nt3_shaped()
    arena = model.arena
    capacity = 512  # force several groups at this model size
    sizes = [g.nbytes for _, _, g in arena.items()]
    groups = arena.fusion_groups(capacity)
    assert [names for _, _, names in groups] == [
        arena.names[g.start : g.stop] for g in fusion_plan(sizes, capacity)
    ]
    assert len(groups) > 1
    # groups tile the slab exactly
    assert groups[0][0] == 0
    assert groups[-1][1] == arena.size
    for (_, stop, _), (start, _, _) in zip(groups, groups[1:]):
        assert stop == start


# -- fused optimizer bit-identity -----------------------------------------


OPTIMIZERS = [
    lambda: SGD(lr=0.05),
    lambda: SGD(lr=0.05, momentum=0.9),
    lambda: SGD(lr=0.05, momentum=0.9, nesterov=True),
    lambda: SGD(lr=0.05, momentum=0.9, decay=1e-3),
    lambda: RMSprop(lr=0.01),
    lambda: Adam(lr=0.01),
]


@pytest.mark.parametrize("make_opt", OPTIMIZERS, ids=lambda f: repr(f()))
def test_fused_step_bit_identical_to_reference(make_opt, rng):
    """≥100 steps: arena-fused updates == per-parameter updates, bitwise."""
    ref = nt3_shaped(seed=11)
    fused = nt3_shaped(seed=11)
    ref.compile(make_opt(), "categorical_crossentropy")
    fused.compile(make_opt(), "categorical_crossentropy")
    x, y = class_data(rng, n=16)
    for step in range(100):
        per_param_step(ref, x, y)
        fused.train_on_batch(x, y)
        if step % 25 == 0 or step == 99:
            for name, (a, b) in _paired(ref, fused).items():
                assert np.array_equal(a, b), f"{name} diverged at step {step}"
    # optimizer state (velocity / moments) must agree bitwise too
    for pname, slots in ref.optimizer._state.items():
        for slot, arr in slots.items():
            assert np.array_equal(arr, fused.optimizer._state[pname][slot]), (
                f"state {pname}/{slot}"
            )
    assert ref.optimizer.iterations == fused.optimizer.iterations


def _paired(a, b):
    pa, pb = a.named_parameters(), b.named_parameters()
    assert set(pa) == set(pb)
    return {name: (pa[name], pb[name]) for name in pa}


def test_fused_step_bit_identical_float32(rng):
    ref = nt3_shaped(seed=5, dtype="float32")
    fused = nt3_shaped(seed=5, dtype="float32")
    ref.compile(SGD(lr=0.05, momentum=0.9), "categorical_crossentropy")
    fused.compile(SGD(lr=0.05, momentum=0.9), "categorical_crossentropy")
    x, y = class_data(rng, n=16)
    x = x.astype(np.float32)
    y = y.astype(np.float32)
    for _ in range(50):
        per_param_step(ref, x, y)
        fused.train_on_batch(x, y)
    for name, (a, b) in _paired(ref, fused).items():
        assert a.dtype == np.float32
        assert np.array_equal(a, b), name


def test_base_arena_step_fallback(rng):
    """An optimizer without a fused kernel still works via the fallback."""

    class Custom(Optimizer):
        def _update_one(self, name, p, g, lr):
            p -= lr * g

    ref = nt3_shaped(seed=2)
    fused = nt3_shaped(seed=2)
    ref.compile(Custom(lr=0.05), "categorical_crossentropy")
    fused.compile(Custom(lr=0.05), "categorical_crossentropy")
    x, y = class_data(rng, n=8)
    for _ in range(5):
        per_param_step(ref, x, y)
        fused.train_on_batch(x, y)
    for name, (a, b) in _paired(ref, fused).items():
        assert np.array_equal(a, b), name


# -- dict-API round-trips ---------------------------------------------------


def test_set_weights_keeps_views_live(rng):
    model = nt3_shaped(seed=1)
    arena = model.arena
    new = [rng.normal(size=w.shape) for w in model.get_weights()]
    model.set_weights(new)
    for (name, arr), src in zip(model.named_parameters().items(), new):
        assert np.shares_memory(arr, arena.params_flat), name
        assert np.array_equal(arr, src.astype(arr.dtype))


def test_checkpoint_roundtrip_preserves_arena(tmp_path, rng):
    model = nt3_shaped(seed=9)
    model.compile(Adam(lr=0.01), "categorical_crossentropy")
    x, y = class_data(rng)
    for _ in range(3):
        model.train_on_batch(x, y)
    path = tmp_path / "ckpt"
    save_checkpoint(model, path, epoch=0)
    rng_snapshot = capture_rng_state(model)  # dropout/shuffle position

    fresh = nt3_shaped(seed=4)
    fresh.compile(Adam(lr=0.01), "categorical_crossentropy")
    for _ in range(2):
        fresh.train_on_batch(x, y)  # populate divergent state, then restore
    load_checkpoint(fresh, str(path) + ".npz")
    restore_rng_state(fresh, rng_snapshot)

    for name, (a, b) in _paired(model, fresh).items():
        assert np.array_equal(a, b), name
    arena = fresh.arena
    for arr in fresh.named_parameters().values():
        assert np.shares_memory(arr, arena.params_flat)
    # restored optimizer state must stay wired to the fused slabs: one
    # more identical step on both models keeps them bitwise in lock-step
    model.train_on_batch(x, y)
    fresh.train_on_batch(x, y)
    for name, (a, b) in _paired(model, fresh).items():
        assert np.array_equal(a, b), f"{name} diverged after restore"


def test_managed_checkpoint_resume_with_arena(tmp_path, rng):
    from repro.hvd.callbacks import ManagedCheckpointCallback
    from repro.resilience import CheckpointManager

    x, y = class_data(rng, n=24)

    def worker(comm):
        hvd.init(comm)
        try:
            manager = CheckpointManager(tmp_path, keep_last=2)
            model = nt3_shaped(seed=21)
            model.compile(
                hvd.DistributedOptimizer(SGD(lr=0.05, momentum=0.9)),
                "categorical_crossentropy",
            )
            cb = ManagedCheckpointCallback(manager, every_n_epochs=1)
            model.fit(x, y, batch_size=8, epochs=2, shuffle=False, callbacks=[cb])

            resumed = nt3_shaped(seed=99)
            resumed.compile(
                hvd.DistributedOptimizer(SGD(lr=0.05, momentum=0.9)),
                "categorical_crossentropy",
            )
            meta = manager.restore_latest(resumed)
            assert meta is not None
            # same step from the same state: must stay bit-identical
            model.fit(x, y, batch_size=8, epochs=1, shuffle=False)
            resumed.fit(x, y, batch_size=8, epochs=1, shuffle=False)
            return [
                np.array_equal(a, b)
                for _, (a, b) in _paired(model, resumed).items()
            ]
        finally:
            hvd.shutdown()

    (flags,) = run_spmd(1, worker)
    assert all(flags)


# -- orphan-gradient warning ------------------------------------------------


def test_orphan_gradient_warns_once():
    opt = SGD(lr=0.1)
    params = {"w": np.zeros(3)}
    grads = {"w": np.ones(3), "ghost": np.ones(3)}
    with pytest.warns(RuntimeWarning, match="ghost"):
        opt.apply_gradients(params, grads)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second call must stay silent
        opt.apply_gradients(params, grads)


# -- zero-copy distributed reduce -------------------------------------------


def test_arena_reduce_bitwise_equals_serial_oracle():
    """SPMD ranks: slab-slice allreduce == the serial oracle, bitwise."""
    make = lambda: SGD(lr=0.05, momentum=0.9)  # noqa: E731
    train = TrainOptions(collective=hvd.CollectiveOptions(fusion_bytes=512))
    want, _ = serial(2, train, make, epochs=2)
    for got, _ in distributed(2, train, make, epochs=2):
        assert got == want


def test_parameter_arena_direct_api(rng):
    named = {"b": rng.normal(size=(2, 3)), "a": rng.normal(size=4)}
    arena = ParameterArena(named)
    assert arena.names == ["a", "b"]
    assert arena.size == 10
    assert arena.nbytes == arena.params_flat.nbytes
    arena.grads["a"][:] = 1.0
    assert arena.grads_flat[:4].sum() == 4.0
    arena.zero_grads()
    assert not arena.grads_flat.any()
    with pytest.raises(ValueError):
        ParameterArena({})
    with pytest.raises(ValueError):
        arena.fusion_groups(0)
