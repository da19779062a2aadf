"""Flat parameter arena: contiguous slabs for parameters and gradients.

The paper's Horovod fixes all follow one principle — *fewer, larger
operations*: tensor fusion batches many small allreduces into one big
ring op. This module applies the same principle to the single-process
training step. A :class:`ParameterArena` owns two contiguous 1-D slabs
(`params_flat`, ``grads_flat``); every layer's ``params[key]`` and
``grads[key]`` arrays become reshaped *views* into those slabs, so

- optimizers can update *every* parameter with one vectorized in-place
  kernel over the slab instead of a Python loop per parameter
  (:meth:`repro.nn.optimizers.Optimizer.apply_arena`),
- :class:`repro.hvd.DistributedOptimizer` can allreduce slab slices
  directly — zero-copy tensor fusion, no pack/unpack step,
- the per-layer dict API (``named_parameters``, ``set_weights``,
  checkpoints, broadcasts) keeps working unchanged, because those code
  paths already mutate arrays in place via ``np.copyto``.

Layout is **sorted by parameter name**, so every rank lays out the same
slab without negotiation, and the fusion groups (:func:`fusion_plan`,
Horovod's greedy rule) are consecutive slab slices.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["DEFAULT_DTYPE", "ParameterArena", "fusion_plan"]

#: The precision a model stores, trains and serves in unless
#: ``TrainOptions(dtype=...)`` names another: float32, Keras's default
#: ``floatx`` and the width ``repro.sim`` prices each gradient element
#: at. ``Sequential`` casts its input and target batches into it.
DEFAULT_DTYPE = np.dtype(np.float32)


def fusion_plan(sizes: Sequence[int], capacity_bytes: int) -> List[range]:
    """Greedy first-fit grouping of tensors, in order, by byte size.

    Each group is a ``range`` of consecutive indices into ``sizes``
    whose bytes total at most ``capacity_bytes``; a tensor larger than
    the capacity gets a group of its own. Deterministic, so every rank
    computes the same plan without negotiation — Horovod's requirement
    that ranks agree on reduction order.
    """
    if capacity_bytes <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bytes}")
    groups: List[range] = []
    start, total = 0, 0
    for i, nbytes in enumerate(sizes):
        if i > start and total + nbytes > capacity_bytes:
            groups.append(range(start, i))
            start, total = i, 0
        total += nbytes
    if len(sizes) > start:
        groups.append(range(start, len(sizes)))
    return groups


class ParameterArena:
    """Contiguous storage for every parameter and gradient of a model."""

    def __init__(self, named: Dict[str, np.ndarray], dtype=DEFAULT_DTYPE):
        if not named:
            raise ValueError("cannot build an arena with no parameters")
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"arena dtype must be floating, got {self.dtype}")
        #: parameter names in slab order (sorted)
        self.names: List[str] = sorted(named)
        self._layout: Dict[str, Tuple[int, int, Tuple[int, ...]]] = {}
        offset = 0
        for name in self.names:
            arr = np.asarray(named[name])
            self._layout[name] = (offset, offset + arr.size, arr.shape)
            offset += arr.size
        #: total scalar count across all parameters
        self.size = offset
        #: set by a weight broadcast (:func:`repro.hvd.broadcast_weights`),
        #: after which every rank's arena holds the same parameters, and
        #: cleared by a rank's own write (``Sequential.set_weights``,
        #: ``load_checkpoint``). Only while it is set may ranks own parts
        #: of a distributed step: an owner leaves every rank with its
        #: parameters and state, where ranks that are not synchronized
        #: own everything and each keep updating their own
        self.replicated = False
        self.params_flat = np.zeros(offset, dtype=self.dtype)
        self.grads_flat = np.zeros(offset, dtype=self.dtype)
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        for name in self.names:
            start, stop, shape = self._layout[name]
            view = self.params_flat[start:stop].reshape(shape)
            np.copyto(view, named[name])
            self.params[name] = view
            self.grads[name] = self.grads_flat[start:stop].reshape(shape)

    # -- construction ------------------------------------------------------
    @classmethod
    def adopt(cls, model, dtype=None) -> "ParameterArena":
        """Move a built model's parameters into arena storage.

        Replaces every ``layer.params[key]`` with a view into
        ``params_flat`` (current values preserved) and installs zeroed
        gradient views in ``layer.grads``, so backward passes write
        straight into the gradient slab via ``Layer.set_grad``.
        """
        dtype = dtype if dtype is not None else getattr(model, "dtype", DEFAULT_DTYPE)
        arena = cls(model.named_parameters(), dtype=dtype)
        for layer in model.layers:
            for key in list(layer.params):
                name = f"{layer.name}/{key}"
                layer.params[key] = arena.params[name]
                layer.grads[key] = arena.grads[name]
            layer._arena_grads = True
        return arena

    # -- access ------------------------------------------------------------
    def items(self) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
        """Yield ``(name, param_view, grad_view)`` in slab order."""
        for name in self.names:
            yield name, self.params[name], self.grads[name]

    def entries(self) -> Iterator[Tuple[str, slice, Tuple[int, ...]]]:
        """Yield ``(name, slab_slice, shape)`` in slab order."""
        for name in self.names:
            start, stop, shape = self._layout[name]
            yield name, slice(start, stop), shape

    @property
    def nbytes(self) -> int:
        """Bytes of one slab (parameters and gradients are the same size)."""
        return self.params_flat.nbytes

    def zeros_slab(self) -> np.ndarray:
        """A fresh zeroed slab with the arena's geometry (optimizer state)."""
        return np.zeros(self.size, dtype=self.dtype)

    def zero_grads(self) -> None:
        """Reset the gradient slab in place."""
        self.grads_flat.fill(0.0)

    # -- comms -------------------------------------------------------------
    def fusion_groups(self, capacity_bytes: int) -> List[Tuple[int, int, List[str]]]:
        """Slice the slab into allreduce groups of ≤ ``capacity_bytes``.

        Returns ``(start, stop, names)`` per group: :func:`fusion_plan`
        over the parameters in slab order, so each group is one slab
        slice. A parameter larger than the capacity gets its own group.
        """
        spans = [self._layout[name][:2] for name in self.names]
        sizes = [(stop - start) * self.dtype.itemsize for start, stop in spans]
        return [
            (spans[g.start][0], spans[g.stop - 1][1], self.names[g.start : g.stop])
            for g in fusion_plan(sizes, capacity_bytes)
        ]

    def __repr__(self):
        return (
            f"<ParameterArena {len(self.names)} params, "
            f"{self.size} scalars, dtype={self.dtype.name}>"
        )
