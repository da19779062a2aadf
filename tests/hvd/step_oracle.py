"""The distributed training step, run serially: the one reference.

Paper §2.3.2 defines the Horovod step in one sentence: average the
gradients with an allreduce, then let the original optimizer apply
them. ``oracle`` is that sentence and nothing else. It uses one model,
built with rank 0's seed (the weight broadcast gives every rank rank 0's
weights), and for each step:

- runs forward and backward on every rank's batch in turn, keeping a
  float64 copy of the gradient slab and the rank's loss;
- takes the mean of the stacked copies in ascending rank order
  (``np.stack(...).mean(axis=0)``, as ``tests/mpi/test_canonical_reduce``
  defines the reduction), casts it to the arena's dtype and writes it
  into the gradient slab;
- runs the base optimizer's whole-slab update, ``apply_arena``.

No ``comms``, ``overlap`` or ``hvd`` code runs. Whatever a distributed
run does — algorithm, fusion, chunks, overlap channels, owner step,
fault tolerance, emulated fabric — its parameters, optimizer state and
per-rank losses must equal the oracle's byte for byte.

The model must not hold a ``Dropout``: its mask RNG is per rank, and
the oracle has one model. Ranks train on their shards in order
(``fit(shuffle=False)``), ``batch`` rows a step. ``build`` and
``shards`` are the model and data the distributed-step suites share.
"""

import numpy as np

from repro.nn import Conv1D, Dense, Flatten, MaxPooling1D, Sequential, save_checkpoint

ROWS, BATCH = 24, 8  # 3 steps an epoch


def build(seed, train):
    """A small conv→pool→dense stack, built under ``train``."""
    model = Sequential(
        [
            Conv1D(4, 3, activation="relu"),
            MaxPooling1D(2),
            Flatten(),
            Dense(16, activation="relu"),
            Dense(3, activation="softmax"),
        ]
    )
    model.build((24, 1), seed=seed, train=train)
    return model


def shards(world, dtype=np.float64):
    """Each rank's ``(x, y)``: ``ROWS`` rows of ``build``'s input."""
    rng = np.random.default_rng(world)
    x = rng.normal(size=(world * ROWS, 24, 1)).astype(dtype)
    y = np.eye(3, dtype=dtype)[rng.integers(0, 3, size=world * ROWS)]
    return [(x[r * ROWS : (r + 1) * ROWS], y[r * ROWS : (r + 1) * ROWS]) for r in range(world)]


def oracle(model, optimizer, data, *, batch, epochs=1, loss="categorical_crossentropy"):
    """Train the built ``model`` as ``len(data)`` ranks would.

    ``data[r]`` is rank ``r``'s ``(x, y)``; ``optimizer`` is the base
    optimizer each rank wraps. Returns each rank's batch losses, in
    step order; the model holds the result.
    """
    model.compile(optimizer, loss)
    arena = model.arena
    losses = [[] for _ in data]
    rows = len(data[0][0])
    for _ in range(epochs):
        for start in range(0, rows, batch):
            grads = []
            for rank, (x, y) in enumerate(data):
                xb, yb = x[start : start + batch], y[start : start + batch]
                y_pred = model._forward(xb, training=True)
                value = model.loss.value(yb, y_pred, out=model._loss_buffer(yb, y_pred))
                losses[rank].append(float(value + model._regularization_penalty()))
                model._backward(yb, y_pred)
                grads.append(arena.grads_flat.astype(np.float64))
            np.copyto(arena.grads_flat, np.stack(grads).mean(axis=0).astype(arena.dtype))
            optimizer.apply_arena(arena)
    return losses


def slabs(model, optimizer):
    """``{kind: bytes}`` of the parameter slab and each state slab of
    ``optimizer`` (the base optimizer). The gradient slab is left out:
    nothing reads it after the step."""
    out = {"param": model.arena.params_flat.tobytes()}
    for slot, slab in zip(optimizer.state_slots, optimizer.arena_state_slabs()):
        out[slot] = slab.tobytes()
    return out


def checkpoint_arrays(path):
    """``{key: bytes}`` of a checkpoint's ``param::*`` and ``state::*``
    arrays."""
    with np.load(path) as data:
        return {
            key: data[key].tobytes()
            for key in data.files
            if key.startswith(("param::", "state::"))
        }


def oracle_checkpoint(model, path):
    """The ``checkpoint_arrays`` of ``model`` (trained by ``oracle``),
    written to ``path``."""
    save_checkpoint(model, path)
    return checkpoint_arrays(path)
