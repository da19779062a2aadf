"""Optimizers: SGD, Adam, RMSprop — the three the CANDLE P1 suite uses.

Table 1 of the paper: NT3 and P1B3 train with ``sgd``, P1B1 with
``adam``, P1B2 with ``rmsprop``. All optimizers expose a mutable ``lr``
attribute so the paper's *linear learning-rate scaling*
(``lr × nprocs``, §2.3.2) can adjust it, and an ``apply_arena`` entry
point that
:class:`repro.hvd.DistributedOptimizer` wraps to average the gradient
slab over ranks before the update — exactly Horovod's structure.

``apply_arena`` updates a model's whole
:class:`~repro.nn.arena.ParameterArena` with fused slab kernels.
``apply_gradients`` is the name-keyed form: one ``_update_one`` per
parameter, the per-parameter reference the slab kernels are
bit-identical to.

State (momenta, moment estimates) is keyed by parameter name so
optimizers survive weight broadcasts that replace the arrays. The slab
kernels keep it in flat state slabs laid out by a :class:`StateLayout`:
the whole arena's elements, mirrored into the name-keyed ``_state``, or
(:meth:`Optimizer.partition_state`) only the element ranges this
process updates, as a distributed owner step leaves it.
"""

from __future__ import annotations

import bisect
import itertools
import warnings
from typing import Dict

import numpy as np

__all__ = ["Optimizer", "SGD", "RMSprop", "Adam", "StateLayout", "get"]

Params = Dict[str, np.ndarray]

#: bytes per operand in one block of the fused arena update: 512 KiB is
#: 64 K float64 or 128 K float32 elements. Each ufunc touches two or
#: three operands (≤ 1.5 MiB), so what one ufunc wrote is still in a
#: 2 MiB per-core L2 when the next reads it, instead of every ufunc
#: streaming whole slabs. Chosen by a sweep (docs/ARCHITECTURE.md)
BLOCK_BYTES = 512 * 1024


class StateLayout:
    """Which elements of an arena's slab a state slab holds, and where.

    ``ranges`` are disjoint ``[lo, hi)`` element ranges of the arena's
    parameter slab (adjacent ones are merged); a state slab holds them
    back to back, in ascending order, ``size`` elements in all. The
    whole layout, one range over the arena, is the case of one process
    updating every element.
    """

    def __init__(self, ranges, arena_size: int):
        merged: list = []
        for lo, hi in sorted(ranges):
            if lo >= hi:
                continue
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self.ranges = tuple(merged)
        self.arena_size = int(arena_size)
        self._starts = [lo for lo, _ in merged]
        self._offsets = list(itertools.accumulate((hi - lo for lo, hi in merged), initial=0))
        #: elements held
        self.size = self._offsets[-1]

    @property
    def whole(self) -> bool:
        """Whether the layout holds every element of the arena."""
        return self.size == self.arena_size

    def shift(self, start: int, stop: int) -> int:
        """How far below its slab index the elements ``[start, stop)``
        sit in a state slab; they must lie in one of :attr:`ranges`."""
        i = bisect.bisect_right(self._starts, start) - 1
        if i < 0 or stop > self.ranges[i][1]:
            raise ValueError(
                f"elements [{start}, {stop}) are not held by this state "
                f"layout (it holds {len(self.ranges)} ranges of "
                f"{self.arena_size} elements)"
            )
        return self.ranges[i][0] - self._offsets[i]

    def copy_in(self, state: np.ndarray, start: int, values: np.ndarray) -> None:
        """Write the elements of flat ``values``, which start at slab
        index ``start``, into ``state`` wherever the layout holds them."""
        stop = start + values.size
        for (lo, hi), off in zip(self.ranges, self._offsets):
            a, b = max(lo, start), min(hi, stop)
            if a < b:
                state[off + a - lo : off + b - lo] = values[a - start : b - start]

    def copy_out(self, state: np.ndarray, whole: np.ndarray) -> None:
        """Write ``state``'s elements into the whole-slab ``whole``."""
        for (lo, hi), off in zip(self.ranges, self._offsets):
            whole[lo:hi] = state[off : off + hi - lo]


class Optimizer:
    """Base optimizer.

    Subclasses implement :meth:`_update_one` which mutates a single
    parameter array in place given its gradient. Optimizers with a
    fused-kernel path additionally override :meth:`_arena_step`, which
    updates a :class:`repro.nn.arena.ParameterArena`'s parameter slab
    (the whole slab, or any element range of it) with a handful of
    vectorized in-place operations, run block by block
    (:meth:`_blocks`) — bit-identical to looping
    :meth:`_update_one`, but without the per-parameter Python and
    allocation overhead.
    """

    #: True when :meth:`_arena_step` is an elementwise slab kernel that
    #: may update any element range on its own (the distributed owner
    #: step updates one range per rank)
    slab_kernel = False
    #: names of the per-element state slabs the slab kernel keeps
    state_slots: tuple = ()

    def __init__(self, lr: float = 0.01, decay: float = 0.0):
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if decay < 0.0:
            raise ValueError(f"decay must be non-negative, got {decay}")
        self.lr = float(lr)
        self.decay = float(decay)
        self.iterations = 0
        self._state: dict[str, dict[str, np.ndarray]] = {}
        # arena-path machinery: flat state slabs keyed by slot name, the
        # layout they share (None until the first arena step), and
        # scratch buffers
        self._arena_slabs: dict[str, np.ndarray] = {}
        self._arena_layout: StateLayout | None = None
        self._arena_scratch: dict[str, np.ndarray] = {}
        self._warned_orphan_grads = False

    # -- public API ------------------------------------------------------
    def apply_gradients(self, params: Params, grads: Params) -> None:
        """Apply one update step to every parameter, in place.

        ``params`` and ``grads`` are name-keyed dicts with matching keys;
        missing gradients (e.g. frozen layers) are skipped. A gradient
        whose key matches *no* parameter is a sign of arena/dict drift —
        it warns once and is ignored.
        """
        self._check_orphan_grads(params, grads)
        self.iterations += 1
        lr_t = self._current_lr()
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if g.shape != p.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != param shape {p.shape} for {name!r}"
                )
            self._update_one(name, p, g, lr_t)

    def apply_arena(self, arena) -> None:
        """One fused update over an arena's parameter/gradient slabs.

        Equivalent to ``apply_gradients`` over the arena's per-parameter
        views (and bit-identical to it), but subclasses with a fused
        kernel touch each slab once instead of looping parameters.
        """
        self._arena_step(arena, self.prepare_arena_step(arena))

    def prepare_arena_step(self, arena) -> float:
        """Open one arena step; returns the step's learning rate.

        Advances ``iterations`` (Adam's bias correction, ``decay``) and
        readies every state slab. :meth:`apply_arena` calls it before
        its one update. A distributed step calls it once, before the
        first of its range updates: those may run on several
        threads at once, so nothing they share may be created lazily.
        """
        self.iterations += 1
        for slot in self.state_slots:
            self._arena_state(arena, slot)
        return self._current_lr()

    def arena_state_slabs(self) -> list:
        """The state slabs :meth:`prepare_arena_step` readied, in
        :attr:`state_slots` order: whole, or (after
        :meth:`partition_state`) the elements this process keeps."""
        return [self._arena_slabs[slot] for slot in self.state_slots]

    @property
    def state_is_whole(self) -> bool:
        """False while the state slabs hold only some of the arena's
        elements (:meth:`partition_state`)."""
        return self._arena_layout is None or self._arena_layout.whole

    def gather_state(self, arena) -> None:
        """Make the optimizer state whole; one process always holds it
        whole. :class:`repro.hvd.DistributedOptimizer` consolidates it
        from the ranks that own it; every reader of the whole state
        (a checkpoint, a step that updates every element) calls it
        first."""

    def partition_state(self, arena, ranges) -> None:
        """Keep state for the element ranges ``ranges`` of ``arena`` only.

        ``ranges`` are the ranges this process will update (a
        distributed owner step's, :meth:`repro.comms.CollectiveEngine.owned_ranges`).
        Each state slab shrinks to those elements, back to back, and
        ``_state`` drops its per-parameter views of the slabs, so no
        reader sees the elements this process no longer keeps. A no-op
        when the state already has this layout; otherwise it must be
        whole (:meth:`unpartition_state` makes it so).
        """
        layout = StateLayout(ranges, arena.size)
        current = self._layout(arena)
        if layout.ranges == current.ranges:
            return
        if not current.whole:
            raise ValueError(
                "the optimizer state is partitioned under other ranges; "
                "make it whole first"
            )
        for slot, slab in list(self._arena_slabs.items()):
            kept = np.empty(layout.size, dtype=slab.dtype)
            layout.copy_in(kept, 0, slab)
            self._arena_slabs[slot] = kept
            for slots in self._state.values():
                slots.pop(slot, None)
        self._arena_layout = layout

    def unpartition_state(self, arena) -> list:
        """Return the state to the whole layout; the whole slabs, in
        :attr:`state_slots` order.

        Each holds this process's state on the elements it kept, and
        zeros elsewhere for the caller to fill in: a distributed
        optimizer gathers them from the ranks that kept them.
        """
        layout = self._layout(arena)
        if not layout.whole:
            for slot in self.state_slots:
                whole = arena.zeros_slab()
                layout.copy_out(self._arena_state(arena, slot), whole)
                self._arena_slabs[slot] = whole
            self._arena_layout = StateLayout([(0, arena.size)], arena.size)
            for slot, slab in self._arena_slabs.items():
                self._mirror(arena, slot, slab)
        return [self._arena_state(arena, slot) for slot in self.state_slots]

    def load_state(self, state: dict) -> None:
        """Replace the per-parameter state: ``{name: {slot: array}}`` of
        whole arrays, as a checkpoint restore reads them. The state
        slabs are rebuilt from it at their next use, in their layout."""
        self._state.clear()
        self._state.update(state)
        self._arena_slabs.clear()

    def scale_lr(self, factor: float) -> None:
        """Multiply the learning rate — the paper's linear LR scaling."""
        if factor <= 0.0:
            raise ValueError(f"LR scale factor must be positive, got {factor}")
        self.lr *= factor

    def state_slot(self, name: str) -> dict[str, np.ndarray]:
        """Per-parameter optimizer state (created on first use)."""
        return self._state.setdefault(name, {})

    # -- arena plumbing ----------------------------------------------------
    def _arena_step(
        self, arena, lr: float, start: int = 0, stop=None, scratch=None
    ) -> None:
        """One update of the slab elements ``[start, stop)``.

        ``scratch`` is the caller's dict of work buffers (None: this
        optimizer's own); two threads updating disjoint ranges at once
        must each pass their own. Subclasses with a :attr:`slab_kernel`
        override this and pass the range on to :meth:`_blocks`. This
        fallback keeps every custom :meth:`_update_one` optimizer working
        against arena-built models, one whole parameter at a time, so it
        takes ranges of whole parameters only (a fusion group is one).
        """
        stop = arena.size if stop is None else stop
        for name, sl, _ in arena.entries():
            if sl.stop <= start or sl.start >= stop:
                continue
            if sl.start < start or sl.stop > stop:
                raise ValueError(
                    f"{type(self).__name__} has no slab kernel: it updates "
                    "whole parameters only"
                )
            self._update_one(name, arena.params[name], arena.grads[name], lr)

    def _layout(self, arena) -> StateLayout:
        """The state slabs' layout for ``arena`` (whole for a new one)."""
        layout = self._arena_layout
        if layout is None or layout.arena_size != arena.size:
            layout = self._arena_layout = StateLayout([(0, arena.size)], arena.size)
            self._arena_slabs.clear()
        return layout

    def _arena_state(self, arena, slot: str) -> np.ndarray:
        """The flat state slab ``slot``, laid out by :meth:`_layout`.

        Built on first use, and after :meth:`load_state`, from the
        per-parameter arrays in ``_state`` (a restored checkpoint), with
        zeros where there are none. Under the whole layout the slab's
        per-parameter views are mirrored into ``_state``, so
        checkpointing sees fused-path state exactly like per-parameter
        state; a partitioned slab has no views there.
        """
        layout = self._layout(arena)
        slab = self._arena_slabs.get(slot)
        if slab is not None:
            return slab
        slab = np.zeros(layout.size, dtype=arena.dtype)
        for name, sl, _ in arena.entries():
            loaded = self._state.get(name, {}).pop(slot, None)
            if loaded is not None:
                layout.copy_in(slab, sl.start, np.asarray(loaded).reshape(-1))
        self._arena_slabs[slot] = slab
        if layout.whole:
            self._mirror(arena, slot, slab)
        return slab

    def _mirror(self, arena, slot: str, slab: np.ndarray) -> None:
        """Point ``_state``'s ``slot`` of every parameter at its view of
        the whole slab ``slab``."""
        for name, sl, shape in arena.entries():
            self._state.setdefault(name, {})[slot] = slab[sl].reshape(shape)

    @staticmethod
    def _scratch(arena, key: str, pool: dict) -> np.ndarray:
        """A reusable block-sized work buffer (contents undefined).

        One :data:`BLOCK_BYTES` block, or the whole slab when that is
        smaller: :meth:`_blocks` hands out its leading views.
        """
        size = min(arena.size, BLOCK_BYTES // arena.dtype.itemsize)
        buf = pool.get(key)
        if buf is None or buf.size != size or buf.dtype != arena.dtype:
            buf = np.empty(size, dtype=arena.dtype)
            pool[key] = buf
        return buf

    def _blocks(
        self, arena, *state: np.ndarray, bufs=(), start=0, stop=None, scratch=None
    ):
        """Walk the slabs' ``[start, stop)`` one cache-sized block at a time.

        Yields ``(params, grads, *state, *bufs)`` views of the same
        element range, :data:`BLOCK_BYTES` per operand (the last block is
        shorter); ``bufs`` names the work buffers, taken from ``scratch``
        (default: this optimizer's own). A subclass runs its whole ufunc
        sequence on each block before the next, so every element sees
        the same ops in the same order as one pass per ufunc over the
        slab — the same bits, whatever the range and its block edges.
        The state slabs are indexed through their :class:`StateLayout`,
        so the range must lie in one of the ranges they hold.
        """
        stop = arena.size if stop is None else stop
        if start >= stop:
            return
        shift = self._arena_layout.shift(start, stop) if state else 0
        slabs = (arena.params_flat, arena.grads_flat)
        pool = self._arena_scratch if scratch is None else scratch
        work = [self._scratch(arena, key, pool) for key in bufs]
        step = BLOCK_BYTES // arena.dtype.itemsize
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            yield (
                tuple(s[lo:hi] for s in slabs)
                + tuple(s[lo - shift : hi - shift] for s in state)
                + tuple(b[: hi - lo] for b in work)
            )

    def _check_orphan_grads(self, params: Params, grads: Params) -> None:
        if self._warned_orphan_grads or len(grads) <= len(params):
            return
        orphans = [k for k in grads if k not in params]
        if orphans:
            self._warned_orphan_grads = True
            warnings.warn(
                f"gradients {sorted(orphans)!r} match no parameter and will "
                "be ignored — parameter/gradient naming has drifted "
                "(renamed layer, stale arena, or mismatched model)",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- subclass hooks ----------------------------------------------------
    def _current_lr(self) -> float:
        if self.decay:
            return self.lr / (1.0 + self.decay * self.iterations)
        return self.lr

    def _update_one(self, name: str, p: np.ndarray, g: np.ndarray, lr: float) -> None:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(lr={self.lr})"


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and Nesterov."""

    slab_kernel = True

    def __init__(
        self,
        lr: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        decay: float = 0.0,
    ):
        super().__init__(lr=lr, decay=decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)

    def _update_one(self, name, p, g, lr):
        if self.momentum == 0.0:
            p -= lr * g
            return
        slot = self.state_slot(name)
        v = slot.get("velocity")
        if v is None:
            v = slot["velocity"] = np.zeros_like(p)
        np.multiply(v, self.momentum, out=v)
        v -= lr * g
        if self.nesterov:
            p += self.momentum * v - lr * g
        else:
            p += v

    @property
    def state_slots(self) -> tuple:
        return ("velocity",) if self.momentum else ()

    def _arena_step(self, arena, lr, **span):
        # same elementwise ops as _update_one, one slab block at a time
        if self.momentum == 0.0:
            for p, g, s in self._blocks(arena, bufs=("s",), **span):
                np.multiply(g, lr, out=s)
                p -= s
            return
        velocity = self._arena_slabs["velocity"]
        if not self.nesterov:
            for p, g, v, s in self._blocks(arena, velocity, bufs=("s",), **span):
                np.multiply(v, self.momentum, out=v)
                np.multiply(g, lr, out=s)
                v -= s
                p += v
            return
        for p, g, v, s, s2 in self._blocks(arena, velocity, bufs=("s", "s2"), **span):
            np.multiply(v, self.momentum, out=v)
            np.multiply(g, lr, out=s)  # lr * g, reused below
            v -= s
            np.multiply(v, self.momentum, out=s2)
            s2 -= s
            p += s2


class RMSprop(Optimizer):
    """RMSprop: scale each coordinate by a running RMS of its gradient."""

    slab_kernel = True
    state_slots = ("accumulator",)

    def __init__(self, lr: float = 0.001, rho: float = 0.9, epsilon: float = 1e-7, decay: float = 0.0):
        super().__init__(lr=lr, decay=decay)
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        self.rho = float(rho)
        self.epsilon = float(epsilon)

    def _update_one(self, name, p, g, lr):
        slot = self.state_slot(name)
        acc = slot.get("accumulator")
        if acc is None:
            acc = slot["accumulator"] = np.zeros_like(p)
        np.multiply(acc, self.rho, out=acc)
        acc += (1.0 - self.rho) * g * g
        p -= lr * g / (np.sqrt(acc) + self.epsilon)

    def _arena_step(self, arena, lr, **span):
        accumulator = self._arena_slabs["accumulator"]
        for p, g, acc, a, b in self._blocks(arena, accumulator, bufs=("a", "b"), **span):
            np.multiply(acc, self.rho, out=acc)
            np.multiply(g, 1.0 - self.rho, out=a)
            a *= g
            acc += a
            np.multiply(g, lr, out=a)
            np.sqrt(acc, out=b)
            b += self.epsilon
            a /= b
            p -= a


class Adam(Optimizer):
    """Adam: bias-corrected first/second moment estimates."""

    slab_kernel = True
    state_slots = ("m", "v")

    def __init__(
        self,
        lr: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-7,
        decay: float = 0.0,
    ):
        super().__init__(lr=lr, decay=decay)
        for nm, b in (("beta_1", beta_1), ("beta_2", beta_2)):
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{nm} must be in [0, 1), got {b}")
        self.beta_1 = float(beta_1)
        self.beta_2 = float(beta_2)
        self.epsilon = float(epsilon)

    def _update_one(self, name, p, g, lr):
        slot = self.state_slot(name)
        m = slot.get("m")
        if m is None:
            m = slot["m"] = np.zeros_like(p)
            slot["v"] = np.zeros_like(p)
        v = slot["v"]
        t = self.iterations
        np.multiply(m, self.beta_1, out=m)
        m += (1.0 - self.beta_1) * g
        np.multiply(v, self.beta_2, out=v)
        v += (1.0 - self.beta_2) * g * g
        m_hat = m / (1.0 - self.beta_1**t)
        v_hat = v / (1.0 - self.beta_2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def _arena_step(self, arena, lr, **span):
        m_slab, v_slab = self._arena_slabs["m"], self._arena_slabs["v"]
        t = self.iterations
        bias_1, bias_2 = 1.0 - self.beta_1**t, 1.0 - self.beta_2**t
        blocks = self._blocks(arena, m_slab, v_slab, bufs=("a", "b"), **span)
        for p, g, m, v, a, b in blocks:
            np.multiply(m, self.beta_1, out=m)
            np.multiply(g, 1.0 - self.beta_1, out=a)
            m += a
            np.multiply(v, self.beta_2, out=v)
            np.multiply(g, 1.0 - self.beta_2, out=a)
            a *= g
            v += a
            np.divide(m, bias_1, out=a)  # m_hat
            np.divide(v, bias_2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.epsilon
            a *= lr
            a /= b
            p -= a


_OPTIMIZERS = {"sgd": SGD, "rmsprop": RMSprop, "adam": Adam}


def get(spec, lr: float | None = None) -> Optimizer:
    """Resolve an optimizer from a name or instance.

    ``lr=None`` keeps each optimizer's Keras default (P1B1 passes no
    learning rate in Table 1, so Adam's default 0.001 applies).
    """
    if isinstance(spec, Optimizer):
        if lr is not None:
            spec.lr = float(lr)
        return spec
    try:
        cls = _OPTIMIZERS[spec]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {spec!r}; known: {sorted(_OPTIMIZERS)}"
        ) from None
    return cls() if lr is None else cls(lr=lr)
