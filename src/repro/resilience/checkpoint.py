"""CheckpointManager: retained, checksummed, atomically-written checkpoints.

:mod:`repro.nn.serialization` knows how to freeze one model+optimizer
into one ``.npz``; this manager turns that into a *fault-tolerant
store*:

- every write goes to ``ckpt-<epoch>.npz`` via the atomic
  temp-then-``os.replace`` path, and its SHA-256 is recorded in a
  manifest (itself written atomically);
- the last N checkpoints are retained, older ones pruned;
- on restore, candidates are tried newest-first and *verified against
  their recorded checksum* — a corrupted or truncated file is refused
  and the previous retained checkpoint is used instead;
- :meth:`restore_distributed` implements the Horovod protocol: rank 0
  loads, then weights, optimizer slots, and metadata are broadcast so
  every rank resumes bit-identically.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Optional

from repro import hvd
from repro.nn.serialization import (
    CheckpointError,
    checksum_file,
    load_checkpoint,
    load_weights_dict,
    restore_rank_rng,
    save_checkpoint,
)
from repro.telemetry import runtime as telemetry
from repro.telemetry.exporters import atomic_write

__all__ = ["CheckpointManager", "CheckpointInfo"]

_MANIFEST = "MANIFEST.json"


@dataclass(frozen=True)
class CheckpointInfo:
    """One retained checkpoint: epoch, file, and recorded digest."""

    epoch: int
    path: str
    sha256: Optional[str] = None


class CheckpointManager:
    """A directory of verified, retained training checkpoints."""

    def __init__(self, directory, keep_last: int = 3, prefix: str = "ckpt"):
        if keep_last <= 0:
            raise ValueError(f"keep_last must be positive, got {keep_last}")
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", prefix):
            raise ValueError(f"prefix must be a plain filename token, got {prefix!r}")
        self.directory = str(directory)
        self.keep_last = int(keep_last)
        self.prefix = prefix
        os.makedirs(self.directory, exist_ok=True)

    # -- naming ------------------------------------------------------------
    def path_for(self, epoch: int) -> str:
        return os.path.join(self.directory, f"{self.prefix}-{epoch:06d}.npz")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    # -- manifest ----------------------------------------------------------
    def _read_manifest(self) -> dict[str, str]:
        """Filename → sha256 for every recorded checkpoint."""
        try:
            with open(self.manifest_path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError):
            return {}
        return {str(k): str(v) for k, v in raw.items()}

    def _write_manifest(self, entries: dict[str, str]) -> None:
        with atomic_write(self.manifest_path) as fh:
            json.dump(entries, fh, indent=1, sort_keys=True)

    # -- listing -----------------------------------------------------------
    def checkpoints(self) -> list[CheckpointInfo]:
        """Retained checkpoints on disk, oldest → newest.

        Files present but unrecorded (e.g. the manifest write crashed)
        are still listed, with ``sha256=None`` — restore will attempt a
        guarded load of those rather than silently ignoring them.
        """
        pattern = re.compile(rf"^{re.escape(self.prefix)}-(\d+)\.npz$")
        manifest = self._read_manifest()
        found = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            match = pattern.match(name)
            if match:
                found.append(
                    CheckpointInfo(
                        epoch=int(match.group(1)),
                        path=os.path.join(self.directory, name),
                        sha256=manifest.get(name),
                    )
                )
        return sorted(found, key=lambda c: c.epoch)

    # -- writing -----------------------------------------------------------
    def save(
        self, model, epoch: int, extra_state: Optional[dict] = None
    ) -> CheckpointInfo:
        """Checkpoint the model at ``epoch``; prune beyond ``keep_last``."""
        path = self.path_for(epoch)
        with telemetry.span(
            "checkpoint.save", category="checkpoint", epoch=epoch, path=path
        ) as sp:
            digest = save_checkpoint(model, path, epoch=epoch, extra_state=extra_state)
            manifest = self._read_manifest()
            manifest[os.path.basename(path)] = digest
            self._write_manifest(manifest)
            self._prune()
            if sp is not None:
                try:
                    sp.set_attrs(bytes=os.path.getsize(path))
                except OSError:
                    pass
        telemetry.counter("checkpoint.saves")
        return CheckpointInfo(epoch=epoch, path=path, sha256=digest)

    def _prune(self) -> None:
        ckpts = self.checkpoints()
        doomed = ckpts[: -self.keep_last] if len(ckpts) > self.keep_last else []
        if not doomed:
            return
        manifest = self._read_manifest()
        for info in doomed:
            try:
                os.unlink(info.path)
            except OSError:
                pass
            manifest.pop(os.path.basename(info.path), None)
        self._write_manifest(manifest)

    # -- verification ------------------------------------------------------
    def verify(self, info: CheckpointInfo) -> bool:
        """True when the file's bytes match its recorded checksum."""
        if info.sha256 is None:
            return False
        try:
            return checksum_file(info.path) == info.sha256
        except OSError:
            return False

    def latest_valid(self) -> Optional[CheckpointInfo]:
        """Newest checkpoint whose checksum verifies; None when nothing does."""
        for info in reversed(self.checkpoints()):
            if self.verify(info):
                return info
        return None

    def latest_restorable(self) -> Optional[CheckpointInfo]:
        """The checkpoint :meth:`restore_latest` loads, found without a model.

        Same candidates, newest-first, under the same file checks: a
        recorded checkpoint must match its checksum, an unrecorded one
        (its manifest write died) must parse. None when none passes.
        """
        for info in reversed(self.checkpoints()):
            try:
                load_weights_dict(info.path, expected_sha256=info.sha256)
            except CheckpointError:
                continue
            return info
        return None

    # -- restoring ---------------------------------------------------------
    def restore_latest(self, model) -> Optional[dict]:
        """Restore the newest *loadable* checkpoint into the model.

        Candidates are tried newest-first. A checksum mismatch or a
        parse failure disqualifies a candidate (it is never half-loaded
        into the model) and the scan falls back to the previous
        retained checkpoint. Returns the loaded metadata, or None when
        no checkpoint survives scrutiny.
        """
        with telemetry.span("checkpoint.restore", category="checkpoint") as sp:
            for info in reversed(self.checkpoints()):
                try:
                    meta = load_checkpoint(
                        model, info.path, expected_sha256=info.sha256
                    )
                except CheckpointError:
                    telemetry.counter("checkpoint.restore.rejected")
                    continue
                restore_rank_rng(model, meta, 0)
                if sp is not None:
                    sp.set_attrs(epoch=info.epoch, path=info.path)
                telemetry.counter("checkpoint.restores")
                return meta
            return None

    def restore_distributed(self, model, root: int = 0) -> Optional[dict]:
        """Rank-``root`` restores, then broadcasts state to every rank.

        Requires an initialized :mod:`repro.hvd` rank context; the
        broadcast is :func:`repro.hvd.broadcast_restored`, so a resumed
        multi-rank run is bit-identical to the uninterrupted one.
        Returns the checkpoint metadata on every rank (None everywhere
        when there is nothing to restore).
        """
        meta = self.restore_latest(model) if hvd.rank() == root else None
        return hvd.broadcast_restored(model, meta, root=root)
