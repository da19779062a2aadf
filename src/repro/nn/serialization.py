"""Checkpoint/restart: model + optimizer state serialization.

The paper's future work (§7): "We will add checkpoint/restart features
to the Horovod benchmarks for fault tolerance." This module provides
it: a checkpoint is an ``.npz`` holding every named parameter, every
optimizer state slot, and the optimizer's step counter/LR — enough to
resume training *exactly* (bit-for-bit with a fixed shuffle order).

The Horovod-side callback that writes checkpoints from rank 0 and
restores+broadcasts on restart lives in :mod:`repro.hvd.callbacks`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

import numpy as np

from repro.telemetry.exporters import atomic_write

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "load_weights_dict",
    "checksum_file",
    "capture_rng_state",
    "restore_rng_state",
    "restore_rank_rng",
    "CheckpointError",
]

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or mismatched."""


def checksum_file(path) -> str:
    """SHA-256 of a file's bytes (the checkpoint integrity fingerprint)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _npz_path(path) -> str:
    """The on-disk name ``np.savez`` would use (appends ``.npz``)."""
    final = str(path)
    return final if final.endswith(".npz") else final + ".npz"


def _optimizer_of(model):
    opt = model.optimizer
    # DistributedOptimizer proxies state to its base optimizer
    return getattr(opt, "base", opt)


def capture_rng_state(model) -> dict:
    """Snapshot every RNG stream training consumes, JSON-serializably.

    Weights and optimizer slots are not the whole training state: the
    shuffle generator and each Dropout layer's mask generator advance
    every epoch, and a resume that resets them diverges from the
    uninterrupted run on the first stochastic draw. The returned dict
    (bit-generator states, plain ints) goes into the checkpoint's
    metadata; :func:`restore_rng_state` applies it after the weights.
    """
    state: dict = {"shuffle": model._shuffle_rng.bit_generator.state}
    layers = {}
    for i, layer in enumerate(getattr(model, "layers", [])):
        rng = getattr(layer, "_rng", None)
        if rng is not None:
            layers[f"layer{i}"] = rng.bit_generator.state
    state["layers"] = layers
    return state


def restore_rng_state(model, state: dict) -> None:
    """Re-seed the model's RNG streams from a :func:`capture_rng_state` dict.

    Layers are matched positionally, so the model must have the same
    architecture the snapshot was taken from (the same guarantee
    checkpoint loading already enforces for parameters).
    """
    shuffle = state.get("shuffle")
    if shuffle is not None:
        model._shuffle_rng.bit_generator.state = shuffle
    layer_states = state.get("layers", {})
    for i, layer in enumerate(getattr(model, "layers", [])):
        rng = getattr(layer, "_rng", None)
        key = f"layer{i}"
        if rng is not None and key in layer_states:
            rng.bit_generator.state = layer_states[key]


def restore_rank_rng(model, meta: Optional[dict], rank: int) -> None:
    """Restore rank ``rank``'s RNG snapshot from checkpoint metadata.

    Checkpoints written by
    :class:`repro.hvd.callbacks.ManagedCheckpointCallback` carry every
    rank's RNG streams (gathered to the writer); restoring them is what
    makes a resumed run bit-identical to an uninterrupted one even with
    dropout active. Checkpoints without the snapshot (or from a larger
    world than the snapshot covers, after an elastic shrink) restore
    weights only.
    """
    extra = (meta or {}).get("extra") or {}
    states = extra.get("rank_rng")
    if states and rank < len(states):
        restore_rng_state(model, states[rank])


def save_checkpoint(
    model, path, epoch: Optional[int] = None, extra_state: Optional[dict] = None
) -> str:
    """Write model weights + optimizer state + metadata to ``path``.

    The model must be compiled (the optimizer is part of the state).

    The write is *atomic*: the archive is assembled in a temporary file
    in the same directory and moved into place with ``os.replace``, so
    a crash mid-write (a killed rank, a full disk, an injected fault)
    can never leave a truncated checkpoint under the final name — the
    previous checkpoint, if any, survives intact. Returns the SHA-256
    hex digest of the written file so callers (e.g.
    :class:`repro.resilience.CheckpointManager`) can verify integrity
    on load.

    Raises :class:`CheckpointError` while the optimizer state is
    partitioned: a distributed owner step, and so a ``fit`` that ran
    one, leaves each rank state for its own segments only. Every rank
    must call the optimizer's ``gather_state`` first, the consolidation
    collective the checkpoint callbacks run before the root writes.
    """
    model._require_compiled()
    if not model.optimizer.state_is_whole:
        raise CheckpointError(
            "the optimizer state is partitioned on this rank (owner "
            "steps keep state for the segments it owns only); call "
            "model.optimizer.gather_state(model.arena) on every rank "
            "before saving"
        )
    opt = _optimizer_of(model)
    arrays: dict[str, np.ndarray] = {}
    for name, param in model.named_parameters().items():
        arrays[f"param::{name}"] = param
    for pname, slots in opt._state.items():
        for slot, arr in slots.items():
            arrays[f"state::{pname}::{slot}"] = arr
    meta = {
        "version": _FORMAT_VERSION,
        "epoch": epoch,
        "optimizer": type(opt).__name__,
        "lr": opt.lr,
        "iterations": opt.iterations,
        "param_names": sorted(model.named_parameters()),
        # caller-provided JSON state (e.g. per-rank RNG snapshots)
        "extra": extra_state,
    }
    arrays["meta::json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()

    final = _npz_path(path)
    with atomic_write(final, "wb") as fh:
        np.savez(fh, **arrays)
    return checksum_file(final)


def _read_arrays(path, expected_sha256: Optional[str]) -> tuple[dict, dict]:
    """Checksum, parse, and meta-validate a checkpoint; ``(arrays, meta)``."""
    if expected_sha256 is not None:
        try:
            actual = checksum_file(path)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        if actual != expected_sha256:
            raise CheckpointError(
                f"checksum mismatch for {path!r}: "
                f"expected {expected_sha256[:12]}…, got {actual[:12]}…"
            )
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc

    meta_raw = arrays.pop("meta::json", None)
    if meta_raw is None:
        raise CheckpointError(f"{path!r} is not a repro checkpoint (no metadata)")
    meta = json.loads(bytes(meta_raw.tobytes()).decode())
    if meta.get("version") != _FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint version {meta.get('version')} != {_FORMAT_VERSION}"
        )
    return arrays, meta


def load_weights_dict(path, expected_sha256: Optional[str] = None) -> tuple[dict, dict]:
    """Read a checkpoint's parameters without touching any model.

    Returns ``(weights, meta)`` where ``weights`` maps parameter name to
    array. This is the model-free half of :func:`load_checkpoint`: the
    serving hot-swap stages a checkpoint's weights into a fresh slab
    *next to* the live model and swaps atomically, so it must be able to
    read (and checksum-verify) a version without an instance to restore
    into. Optimizer state is ignored — inference has none.
    """
    arrays, meta = _read_arrays(path, expected_sha256)
    weights = {
        key[len("param::"):]: arrays[key]
        for key in arrays
        if key.startswith("param::")
    }
    return weights, meta


def load_checkpoint(model, path, expected_sha256: Optional[str] = None) -> dict:
    """Restore weights + optimizer state in place; returns the metadata.

    Validates that the checkpoint's parameter set matches the model —
    resuming into a different architecture fails loudly. When
    ``expected_sha256`` is given, the file's bytes are checksummed
    *before* parsing and a mismatch (corruption, truncation, a foreign
    file under the right name) raises :class:`CheckpointError` without
    touching the model.
    """
    model._require_compiled()
    arrays, meta = _read_arrays(path, expected_sha256)

    params = model.named_parameters()
    saved_names = {k[len("param::"):] for k in arrays if k.startswith("param::")}
    if saved_names != set(params):
        missing = sorted(set(params) - saved_names)
        extra = sorted(saved_names - set(params))
        raise CheckpointError(
            f"parameter mismatch: missing {missing}, unexpected {extra}"
        )
    for name, param in params.items():
        saved = arrays[f"param::{name}"]
        if saved.shape != param.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: {saved.shape} vs {param.shape}"
            )
        np.copyto(param, saved)
    arena = getattr(model, "arena", None)
    if arena is not None:
        # one rank's load: synchronized again by the next weight broadcast
        arena.replicated = False

    opt = _optimizer_of(model)
    new_state: dict[str, dict[str, np.ndarray]] = {}
    for key, arr in arrays.items():
        if key.startswith("state::"):
            _, pname, slot = key.split("::", 2)
            new_state.setdefault(pname, {})[slot] = arr
    opt.load_state(new_state)
    opt.lr = float(meta["lr"])
    opt.iterations = int(meta["iterations"])
    return meta
