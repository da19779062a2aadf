"""Functional parameter-server training over the SPMD runtime.

Rank 0 is the server; ranks 1..N-1 are workers. Each training step a
worker computes gradients on its batch, *pushes* them to the server,
and *pulls* updated weights — the gRPC distributed-TensorFlow pattern.

Two modes:

- **sync**: the server waits for all workers' gradients, averages them,
  applies one update, then answers every pull with the same weights —
  semantically identical to allreduce (and our tests assert so), but
  all traffic funnels through one endpoint.
- **async**: the server applies each worker's gradient as it arrives
  (Downpour-style); workers may compute on stale weights, so replicas
  see different weights between pulls — faster per step, noisier
  convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.mpi import run_spmd
from repro.nn.optimizers import Optimizer

__all__ = ["run_parameter_server_training", "PsResult"]

_PUSH_TAG = 101
_PULL_TAG = 102
_DONE = "__worker_done__"


@dataclass
class PsResult:
    """Outcome of one PS training run."""

    mode: str
    num_workers: int
    final_weights: Dict[str, np.ndarray]
    losses: list = field(default_factory=list)
    server_updates: int = 0


def _serve_sync(comm, params: Dict[str, np.ndarray], optimizer: Optimizer, steps: int):
    nworkers = comm.size - 1
    for _ in range(steps):
        grads = [comm.recv(source=w, tag=_PUSH_TAG) for w in range(1, comm.size)]
        mean = {
            name: np.mean([g[name] for g in grads], axis=0) for name in params
        }
        optimizer.apply_gradients(params, mean)
        for w in range(1, comm.size):
            comm.send({n: p.copy() for n, p in params.items()}, dest=w, tag=_PULL_TAG)
    return steps


def _serve_async(comm, params: Dict[str, np.ndarray], optimizer: Optimizer):
    updates = 0
    workers = list(range(1, comm.size))
    while workers:
        # sleeps until some worker pushes; per-worker order is the
        # fabric's per-pair order
        w, payload = comm.recv_any(workers, tag=_PUSH_TAG)
        if payload == _DONE:
            workers.remove(w)
            continue
        optimizer.apply_gradients(params, payload)
        updates += 1
        comm.send({n: p.copy() for n, p in params.items()}, dest=w, tag=_PULL_TAG)
    return updates


def run_parameter_server_training(
    nworkers: int,
    build_model,
    data,
    steps: int,
    batch_size: int,
    mode: str = "sync",
    seed: int = 0,
) -> PsResult:
    """Train ``build_model()`` on ``data=(x, y)`` via a parameter server.

    ``build_model`` must return a compiled :class:`repro.nn.Sequential`;
    rank 0 hosts its parameters and optimizer, ranks 1..nworkers compute
    gradients on shuffled batches. Returns the server's final weights
    and per-step worker-0 losses.
    """
    if nworkers < 1:
        raise ValueError(f"need at least one worker, got {nworkers}")
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be sync|async, got {mode!r}")
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    x, y = data

    def node(comm):
        model = build_model()
        params = model.named_parameters()
        if comm.rank == 0:
            # the server owns the optimizer; workers only compute grads
            optimizer = model.optimizer
            if mode == "sync":
                updates = _serve_sync(comm, params, optimizer, steps)
            else:
                updates = _serve_async(comm, params, optimizer)
            return {
                "weights": {n: p.copy() for n, p in params.items()},
                "updates": updates,
            }

        rng = np.random.default_rng(seed + comm.rank)
        # start from the server's weights: pull once via a push of zeros?
        # simpler: all replicas build identically (same build_model seed)
        losses = []
        for _ in range(steps):
            idx = rng.integers(0, len(x), size=min(batch_size, len(x)))
            xb, yb = x[idx], y[idx]
            y_pred = model._forward(xb, training=True)
            losses.append(model.loss.value(yb, y_pred))
            model._backward(yb, y_pred)
            grads = {k: v.copy() for k, v in model.named_gradients().items()}
            comm.send(grads, dest=0, tag=_PUSH_TAG)
            fresh = comm.recv(source=0, tag=_PULL_TAG)
            for name, value in fresh.items():
                np.copyto(params[name], value)
        if mode == "async":
            comm.send(_DONE, dest=0, tag=_PUSH_TAG)
        return {"losses": losses}

    results = run_spmd(nworkers + 1, node)
    return PsResult(
        mode=mode,
        num_workers=nworkers,
        final_weights=results[0]["weights"],
        losses=results[1]["losses"],
        server_updates=results[0]["updates"],
    )
