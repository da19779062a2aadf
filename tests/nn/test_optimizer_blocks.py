"""The blocked arena update against the whole-slab update it replaced.

``SGD``, ``RMSprop`` and ``Adam`` run their ``_arena_step`` ufunc
sequence once per ``BLOCK_BYTES`` block of the slabs instead of once per
ufunc over the whole slab. The op order per element is unchanged, so
none of it may show in a byte.

A range update (``start``/``stop``: the distributed owner step updates
one range per rank) must give the same bytes inside the range and leave
everything outside it untouched.

The oracle (``oracle_*``) is the parent's three whole-slab bodies, kept
as plain functions over a dict of state slabs with slab-sized scratch.
Comparisons are ``tobytes()`` of the parameters and of every state slab,
never ``allclose``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.nn.arena import ParameterArena
from repro.nn.optimizers import BLOCK_BYTES, SGD, Adam, Optimizer, RMSprop

# ---------------------------------------------------------------------------
# the oracle: one pass per ufunc over the whole slab
# ---------------------------------------------------------------------------


def oracle_sgd(opt, p, g, state, lr, t):
    s = np.empty_like(p)
    if opt.momentum == 0.0:
        np.multiply(g, lr, out=s)
        p -= s
        return
    v = state["velocity"]
    np.multiply(v, opt.momentum, out=v)
    np.multiply(g, lr, out=s)
    v -= s
    if opt.nesterov:
        s2 = np.empty_like(p)
        np.multiply(v, opt.momentum, out=s2)
        s2 -= s
        p += s2
    else:
        p += v


def oracle_rmsprop(opt, p, g, state, lr, t):
    acc = state["accumulator"]
    a, b = np.empty_like(p), np.empty_like(p)
    np.multiply(acc, opt.rho, out=acc)
    np.multiply(g, 1.0 - opt.rho, out=a)
    a *= g
    acc += a
    np.multiply(g, lr, out=a)
    np.sqrt(acc, out=b)
    b += opt.epsilon
    a /= b
    p -= a


def oracle_adam(opt, p, g, state, lr, t):
    m, v = state["m"], state["v"]
    a, b = np.empty_like(p), np.empty_like(p)
    np.multiply(m, opt.beta_1, out=m)
    np.multiply(g, 1.0 - opt.beta_1, out=a)
    m += a
    np.multiply(v, opt.beta_2, out=v)
    np.multiply(g, 1.0 - opt.beta_2, out=a)
    a *= g
    v += a
    np.divide(m, 1.0 - opt.beta_1**t, out=a)
    np.divide(v, 1.0 - opt.beta_2**t, out=b)
    np.sqrt(b, out=b)
    b += opt.epsilon
    a *= lr
    a /= b
    p -= a


OPTIMIZERS = {
    "sgd": (lambda: SGD(lr=0.05), oracle_sgd, ()),
    "sgd_momentum": (lambda: SGD(lr=0.05, momentum=0.9), oracle_sgd, ("velocity",)),
    "sgd_nesterov": (
        lambda: SGD(lr=0.05, momentum=0.9, nesterov=True), oracle_sgd, ("velocity",),
    ),
    "rmsprop": (lambda: RMSprop(lr=0.01), oracle_rmsprop, ("accumulator",)),
    "adam": (lambda: Adam(lr=0.01), oracle_adam, ("m", "v")),
}


def block(dtype) -> int:
    return BLOCK_BYTES // np.dtype(dtype).itemsize


def make_arena(n, dtype, rng) -> ParameterArena:
    """An ``n``-scalar arena of up to three parameters (so the state
    mirrors span several names, and blocks cross parameter edges)."""
    cuts = sorted({0, n} | ({n // 3, 2 * n // 3} if n >= 3 else set()))
    named = {
        f"dense_{i}/kernel": rng.normal(size=stop - start)
        for i, (start, stop) in enumerate(zip(cuts, cuts[1:]))
    }
    return ParameterArena(named, dtype=dtype)


def adopt_checkpoint(opt, make):
    """A fresh optimizer holding ``opt``'s state the way a checkpoint
    restore leaves it: per-parameter copies in ``_state``, not slabs."""
    fresh = make()
    for name, slots in opt._state.items():
        fresh._state[name] = {k: v.copy() for k, v in slots.items()}
    fresh.iterations = opt.iterations
    return fresh


# ---------------------------------------------------------------------------
# bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize(
    "size", ["1", "block-1", "block", "block+1", "3block+7"]
)
def test_blocked_update_is_the_whole_slab_update(size, dtype, kind):
    make, oracle, slots = OPTIMIZERS[kind]
    k = block(dtype)
    n = {"1": 1, "block-1": k - 1, "block": k, "block+1": k + 1, "3block+7": 3 * k + 7}[size]
    rng = np.random.default_rng(n)
    arena = make_arena(n, dtype, rng)
    want_p = arena.params_flat.copy()
    want_state = {slot: np.zeros(n, dtype=dtype) for slot in slots}
    opt = make()
    for step in range(1, 6):
        if step == 4:
            opt = adopt_checkpoint(opt, make)
        arena.grads_flat[...] = rng.normal(size=n)
        grads = arena.grads_flat.copy()
        opt.apply_arena(arena)
        oracle(opt, want_p, grads, want_state, opt._current_lr(), step)
        assert opt.iterations == step
        assert arena.params_flat.tobytes() == want_p.tobytes(), step
        assert sorted(opt._arena_slabs) == sorted(slots)
        for slot in slots:
            assert opt._arena_slabs[slot].tobytes() == want_state[slot].tobytes(), (step, slot)


@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("span", ["one", "straddle", "whole"])
def test_a_range_update_is_the_whole_slab_update_on_that_range(span, dtype, kind):
    """The distributed owner step updates one element range per rank:
    inside it the bytes of the whole-slab update, outside it nothing."""
    make, oracle, slots = OPTIMIZERS[kind]
    k = block(dtype)
    n = 3 * k + 7
    lo, hi = {"one": (k + 5, k + 6), "straddle": (k - 3, 2 * k + 4), "whole": (0, n)}[span]
    rng = np.random.default_rng(n + lo)
    arena = make_arena(n, dtype, rng)
    first_p = arena.params_flat.copy()
    want_p = first_p.copy()
    want_state = {slot: np.zeros(n, dtype=dtype) for slot in slots}
    opt = make()
    for step in range(1, 4):
        arena.grads_flat[...] = rng.normal(size=n)
        grads = arena.grads_flat.copy()
        lr = opt.prepare_arena_step(arena)
        scratch = {}
        opt._arena_step(arena, lr, start=lo, stop=None if span == "whole" else hi, scratch=scratch)
        assert not opt._arena_scratch and scratch  # the caller's buffers only
        oracle(opt, want_p, grads, want_state, lr, step)
        inside, outside = slice(lo, hi), np.r_[0:lo, hi:n]
        assert arena.params_flat[inside].tobytes() == want_p[inside].tobytes(), step
        assert arena.params_flat[outside].tobytes() == first_p[outside].tobytes(), step
        for slot, slab in zip(slots, opt.arena_state_slabs()):
            assert slab[inside].tobytes() == want_state[slot][inside].tobytes(), (step, slot)
            assert not slab[outside].any(), (step, slot)


def test_an_optimizer_without_a_slab_kernel_updates_the_whole_slab_only():
    class Custom(Optimizer):
        def _update_one(self, name, p, g, lr):
            p -= lr * g

    opt, arena = Custom(lr=0.1), make_arena(10, np.float64, np.random.default_rng(0))
    assert not opt.slab_kernel
    with pytest.raises(ValueError, match="slab kernel"):
        opt._arena_step(arena, 0.1, start=2, stop=5)
    opt._arena_step(arena, 0.1, start=0, stop=10)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_scratch_is_one_block_or_the_slab(dtype):
    rng = np.random.default_rng(0)
    small, large = make_arena(100, dtype, rng), make_arena(3 * block(dtype) + 7, dtype, rng)
    for arena, size in ((small, 100), (large, block(dtype))):
        opt = Adam()
        opt.apply_arena(arena)
        assert sorted(opt._arena_scratch) == ["a", "b"]
        for buf in opt._arena_scratch.values():
            assert buf.size == size and buf.dtype == dtype


# ---------------------------------------------------------------------------
# allocation: counted with tracemalloc, never timed
# ---------------------------------------------------------------------------


def test_a_warmed_p1b1_adam_update_allocates_nothing_and_holds_two_blocks():
    """``p1b1_hvd_w2``'s model: 4.6 M parameters (18 MB in float32).
    The whole-slab update held two slab-sized scratch buffers."""
    bench = get_benchmark("p1b1", scale=0.1, sample_scale=0.3)
    model = bench.build_model(seed=3)
    opt = Adam()
    model.compile(opt, "mse")
    arena = model.arena
    assert arena.size > 4 << 20
    arena.grads_flat[...] = np.random.default_rng(0).normal(size=arena.size) * 1e-3
    for _ in range(2):
        opt.apply_arena(arena)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        opt.apply_arena(arena)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sum(buf.nbytes for buf in opt._arena_scratch.values()) <= 2 * BLOCK_BYTES
