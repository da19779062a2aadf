"""Binary column-store cache: parse the text once, memmap it ever after.

The first load of a CSV writes its columns to a per-file cache entry —
dtype-grouped 2-D ``.npy`` blocks plus a ``meta.json`` — so later loads
skip text parsing entirely and ``np.load(..., mmap_mode='r')`` the
blocks (milliseconds instead of the paper's 81.72 s for NT3).

An entry is keyed by the source path and validated against three
fingerprints recorded at store time:

- **size** and **mtime_ns** — the cheap staleness check (a rewritten
  file almost always changes one of them);
- **sha256 of the first line** — the checksum guard for same-size,
  same-mtime rewrites (tools that restore timestamps, copies over NFS).

The fingerprint is the one taken *before* the text was read, so a file
rewritten while it is parsed is stale at the next lookup. Any mismatch
invalidates the entry: the loader re-parses the text and atomically
replaces the store (write to a temp dir, then rename), so a crashed
writer can never leave a half-readable entry behind, and writers racing
on one file (SPMD ranks cold-loading it at once) all end with a frame.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.frame.dataframe import DataFrame

__all__ = ["ColumnStoreCache", "CacheStats", "DEFAULT_CACHE_DIRNAME"]

#: sibling directory used when LoaderConfig.cache_dir is None
DEFAULT_CACHE_DIRNAME = ".ingest-cache"

_FORMAT_VERSION = 1

#: what reading an entry's blocks raises when they are missing, corrupt
#: or not the layout its meta describes
_UNREADABLE = (OSError, ValueError, KeyError, IndexError)

#: ``np.load`` parses each ``.npy`` header with ``ast.literal_eval``, and
#: CPython 3.11's AST constructor keeps its recursion depth in
#: interpreter-wide state: two threads converting at once can fail with
#: ``SystemError: AST constructor recursion depth mismatch``. SPMD ranks
#: are threads that load one entry at once, so blocks open one at a time
_LOAD_LOCK = threading.Lock()


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


def _header_sha256(path: str) -> str:
    """SHA-256 of the file's first line (bytes, newline excluded)."""
    with open(path, "rb") as fh:
        first = fh.readline()
    return hashlib.sha256(first.rstrip(b"\r\n")).hexdigest()


def _encode_name(name) -> list:
    """Column names survive JSON: ints stay ints, everything else str."""
    return ["i", int(name)] if isinstance(name, (int, np.integer)) else ["s", str(name)]


def _decode_name(pair):
    kind, value = pair
    return int(value) if kind == "i" else value


def _rename_dir(src: str, dst: str) -> bool:
    """Rename directory ``src`` to ``dst`` atomically; False when ``dst``
    is a non-empty directory already (another writer got there first)."""
    try:
        os.rename(src, dst)
    except OSError as exc:
        if exc.errno in (errno.ENOTEMPTY, errno.EEXIST):
            return False
        raise
    return True


class ColumnStoreCache:
    """A directory of binary column stores, one entry per source file.

    A warm load (:meth:`lookup`) reads ``meta.json``, checks the
    fingerprint and maps each block once; every column is a view of its
    block, so nothing is copied until the caller asks for a matrix. A
    cold one writes each dtype block once (:meth:`store`) and hands back
    the same mapped frame, read with the meta it just wrote.
    """

    def __init__(self, cache_dir):
        self.cache_dir = str(cache_dir)
        self.stats = CacheStats()

    @classmethod
    def for_source(cls, path, cache_dir=None) -> "ColumnStoreCache":
        """Cache handle for a source file (default: sibling directory)."""
        if cache_dir is None:
            cache_dir = os.path.join(
                os.path.dirname(os.path.abspath(str(path))), DEFAULT_CACHE_DIRNAME
            )
        return cls(cache_dir)

    def entry_dir(self, path) -> str:
        key = hashlib.sha256(os.path.abspath(str(path)).encode()).hexdigest()[:24]
        return os.path.join(self.cache_dir, key)

    @staticmethod
    def fingerprint(path) -> dict:
        """What an entry is validated against: the source's size,
        ``mtime_ns`` and first-line SHA-256, as of now."""
        st = os.stat(path)
        return {
            "size": st.st_size,
            "mtime_ns": st.st_mtime_ns,
            "header_sha256": _header_sha256(path),
        }

    # -- store -------------------------------------------------------------
    def store(self, path, frame: DataFrame, fingerprint: Optional[dict] = None) -> DataFrame:
        """Write ``frame`` as this file's column store; returns it mapped.

        ``fingerprint`` is :meth:`fingerprint` taken before the text was
        read (default: taken now) and is recorded as given, so a source
        rewritten during its parse is stale at the next lookup instead of
        serving the old content under the new file's stamp.

        The returned frame is read back with the meta written here — no
        second ``meta.json`` read or fingerprint. When another writer
        installed the entry first, this one discards its own and returns
        the installed entry if it validates, else ``frame``; a stale
        entry is renamed aside before the new one goes in and deleted
        only after, so the entry's name never points at a directory
        being deleted or half written.
        """
        path = str(path)
        fp = self.fingerprint(path) if fingerprint is None else fingerprint
        entry = self.entry_dir(path)
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=".tmp-", dir=self.cache_dir)
        installed = False
        try:
            meta = self._write(tmp, path, frame, fp)
            installed = _rename_dir(tmp, entry)
            if not installed:
                theirs = self.lookup(path)
                if theirs is not None:
                    return theirs
                installed = self._replace_stale(tmp, entry)
                if not installed:  # lost to a third writer: serve the parse
                    return frame
        finally:
            if not installed:
                shutil.rmtree(tmp, ignore_errors=True)
        try:
            return self._read_entry(entry, meta)
        except _UNREADABLE:  # replaced under us by a newer writer
            return frame

    @staticmethod
    def _write(tmp: str, path: str, frame: DataFrame, fp: dict) -> dict:
        """The entry's blocks and ``meta.json`` in ``tmp``; returns the meta."""
        # group columns by dtype so a 60k-column frame becomes a
        # handful of contiguous 2-D blocks, not 60k tiny files
        groups: dict[str, list] = {}
        for name in frame.columns:
            groups.setdefault(str(frame[name].dtype), []).append(name)
        blocks, columns = [], []
        for block_idx, (dtype, names) in enumerate(sorted(groups.items())):
            block_dtype = frame[names[0]].dtype
            pickled = block_dtype == object
            matrix = frame[names].to_numpy(dtype=block_dtype)
            fname = f"block{block_idx}.npy"
            np.save(os.path.join(tmp, fname), matrix, allow_pickle=pickled)
            blocks.append({"file": fname, "dtype": dtype, "pickled": pickled})
            for j, n in enumerate(names):
                columns.append({"name": _encode_name(n), "block": block_idx, "index": j})
        meta = {
            "version": _FORMAT_VERSION,
            "source": os.path.abspath(path),
            **fp,
            "nrows": len(frame),
            "column_order": [_encode_name(n) for n in frame.columns],
            "columns": columns,
            "blocks": blocks,
        }
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            # dumps is the C encoder in one call; json.dump walks the
            # pure-Python one (34 ms against 6 for 4,839 columns)
            fh.write(json.dumps(meta))
        return meta

    def _replace_stale(self, tmp: str, entry: str) -> bool:
        """Move ``entry`` aside, rename ``tmp`` in, then delete the old
        one; False if yet another writer's entry took the name first."""
        aside = tempfile.mkdtemp(prefix=".tmp-", dir=self.cache_dir)
        try:
            try:
                os.rename(entry, aside)  # onto an empty dir: allowed
            except FileNotFoundError:  # another writer moved it first
                pass
            return _rename_dir(tmp, entry)
        finally:
            shutil.rmtree(aside, ignore_errors=True)

    # -- lookup ------------------------------------------------------------
    def lookup(self, path) -> Optional[DataFrame]:
        """The cached frame, or None on miss/stale entry (counted apart)."""
        path = str(path)
        entry = self.entry_dir(path)
        meta_path = os.path.join(entry, "meta.json")
        if not os.path.isfile(meta_path):
            self.stats.misses += 1
            return None
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            self.stats.invalidations += 1
            return None
        fp = self.fingerprint(path)
        if meta.get("version") != _FORMAT_VERSION or any(
            meta.get(k) != fp[k] for k in ("size", "mtime_ns", "header_sha256")
        ):
            self.stats.invalidations += 1
            return None
        try:
            frame = self._read_entry(entry, meta)
        except _UNREADABLE:
            self.stats.invalidations += 1
            return None
        self.stats.hits += 1
        return frame

    @staticmethod
    def _read_entry(entry: str, meta: dict) -> DataFrame:
        matrices = []
        for block in meta["blocks"]:
            block_path = os.path.join(entry, block["file"])
            with _LOAD_LOCK:
                if block["pickled"]:
                    matrices.append(np.load(block_path, allow_pickle=True))
                else:
                    # columns come off a plain-ndarray view of the
                    # mapping: np.memmap.__getitem__ costs 26 ms per
                    # 4,838 slices, a view's 2; each column's .base chain
                    # still ends at the memmap (mmap_base, resident_nbytes)
                    matrices.append(np.asarray(np.load(block_path, mmap_mode="r")))
        by_name = {
            tuple(col["name"]): matrices[col["block"]][:, col["index"]]
            for col in meta["columns"]
        }
        return DataFrame(
            {_decode_name(pair): by_name[tuple(pair)] for pair in meta["column_order"]}
        )

    # -- maintenance -------------------------------------------------------
    def evict(self, path) -> bool:
        """Drop one file's entry; True if something was removed."""
        entry = self.entry_dir(path)
        if os.path.isdir(entry):
            shutil.rmtree(entry)
            return True
        return False

    def clear(self) -> None:
        """Remove the whole cache directory."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
