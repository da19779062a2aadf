"""Binary column-store cache: parse the text once, memmap it ever after.

The first load of a CSV writes its frame to a per-file cache entry —
one 2-D ``.npy`` block per column dtype plus a ``meta.json`` — so later
loads skip text parsing entirely and map the blocks (milliseconds
instead of the paper's 81.72 s for NT3).

The mapping is handed on, not copied: a cached frame's columns are
views of its blocks, and ``CandleBenchmark.from_frames`` takes a run of
float64 columns as one view (``DataFrame._matrix``), read-only, so an
in-place write raises instead of changing the entry (a consumer that
writes copies first). Other dtypes (NT3's int64 labels) are copied.

Format 2's ``meta.json`` describes each block by its dtype, shape and
data offset in the file, and by the frame-position spans of its columns
(``[[1, 4839]]`` for NT3's features, not 4,838 entries); names are
encoded as runs too. A numeric block opens as ``np.memmap`` at its
recorded offset, with no ``.npy`` header parse; an object block is
unpickled by ``np.load``. A version-1 entry reads as stale and is
rewritten by the next load.

A hit therefore costs the ``meta.json`` parse, the fingerprint (its
first-line hash is O(line bytes)) and one mapping per block, and
creates no Python object per column: one int run of names (a
``header=None`` file's) decodes to a ``range``, the frame keeps it, and
placement is filled span by span in NumPy. A store finds the runs of
int names in NumPy too: 3.9 ms at NT3's 60,484 columns against 28 name
by name (2-vCPU VM).

A miss is parsed before it is stored, on two cores where it can be
(:mod:`repro.ingest.split`: a forked child casts half the file into a
shared mapping); the pieces handed to :meth:`ColumnStoreCache.store`
are the serial ``chunked`` parse's either way.

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
import math
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.frame.dataframe import DataFrame, _dtype_codes, _same_layout, concat

__all__ = ["ColumnStoreCache", "CacheStats", "DEFAULT_CACHE_DIRNAME"]

#: sibling directory used when LoaderConfig.cache_dir is None
DEFAULT_CACHE_DIRNAME = ".ingest-cache"

_FORMAT_VERSION = 2

#: what reading an entry's blocks raises when they are missing, corrupt
#: or not the layout its meta describes
_UNREADABLE = (OSError, ValueError, KeyError, IndexError, TypeError)

#: ``np.load`` parses each ``.npy`` header with ``ast.literal_eval``, and
#: CPython 3.11's AST constructor keeps its recursion depth in
#: interpreter-wide state: two threads converting at once can fail with
#: ``SystemError: AST constructor recursion depth mismatch``. SPMD ranks
#: are threads that load one entry at once, so object blocks (the only
#: ones still read through ``np.load``) open one at a time
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


def _encode_names(names) -> list:
    """Column names as JSON runs that keep ints ints: ``["r", a, b]`` for
    the ints ``a..b-1`` in order, ``["s", name]`` for any other name.

    Names that are all ints (a ``header=None`` file's) are one int64
    array, and their runs are found in NumPy (:func:`_spans`), so Python
    builds one list per run, not a step per name."""
    try:
        ints = np.asarray(names)
    except ValueError:  # nested names of unequal length
        ints = None
    if ints is not None and ints.ndim == 1 and ints.dtype.kind == "i" and ints.size:
        return [["r", start, stop] for start, stop in _spans(ints.astype(np.int64))]
    runs: list = []
    for name in names:
        if not isinstance(name, (int, np.integer)):
            runs.append(["s", str(name)])
        elif runs and runs[-1][0] == "r" and runs[-1][2] == int(name):
            runs[-1][2] += 1
        else:
            runs.append(["r", int(name), int(name) + 1])
    return runs


def _decode_names(runs):
    """The names ``_encode_names`` wrote: a ``range`` for one int run (a
    ``header=None`` file's), so a hit makes no object per column."""
    if len(runs) == 1 and runs[0][0] == "r":
        return range(runs[0][1], runs[0][2])
    names: list = []
    for run in runs:
        if run[0] == "r":
            names.extend(range(run[1], run[2]))
        else:
            names.append(run[1])
    return names


def _spans(positions: np.ndarray) -> list:
    """``[start, stop]`` of each step-1 run of ``positions``."""
    cuts = np.flatnonzero(np.diff(positions) != 1) + 1
    starts = positions[np.r_[0, cuts]]
    stops = positions[np.r_[cuts - 1, len(positions) - 1]] + 1
    return np.column_stack([starts, stops]).tolist()


def _write_npy(path: str, matrices, shape: tuple, dtype: np.dtype) -> int:
    """Row pieces of one C-order matrix of ``shape``, stacked, as an
    ``.npy`` file; returns its data offset.

    The rows go out in ~1 MB batches, each copied only if it is not
    contiguous already, so a strided view (a parsed chunk's float64
    columns) is written without a copy of the whole.
    """
    header = {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False,
        "shape": shape,
    }
    rows = max(1, (1 << 20) // max(1, shape[1] * dtype.itemsize))
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        offset = fh.tell()
        for matrix in matrices:
            for start in range(0, len(matrix), rows):
                fh.write(np.ascontiguousarray(matrix[start : start + rows]))
    return offset


def _map_block(path: str, block: dict) -> np.ndarray:
    """One block of an entry, as its meta describes it.

    A numeric block is mapped at its recorded offset, with no header
    parse (so no lock); a file that is not exactly that offset plus the
    block's bytes is unreadable. Columns come off a plain-ndarray view
    of the mapping: ``np.memmap.__getitem__`` costs 26 ms per 4,838
    slices, a view's 2; the view's ``.base`` is still the memmap
    (``mmap_base``, ``resident_nbytes``).
    """
    if block["pickled"]:
        with _LOAD_LOCK:
            return np.load(path, allow_pickle=True)
    dtype, shape, offset = np.dtype(block["dtype"]), tuple(block["shape"]), block["offset"]
    nbytes = dtype.itemsize * math.prod(shape)
    if os.path.getsize(path) != offset + nbytes:
        raise ValueError(f"{path}: not {nbytes} bytes of data after offset {offset}")
    return np.asarray(np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape))


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
    cold one writes each dtype block once (:meth:`store`), straight from
    the parsed chunks, and hands back the same mapped frame, read with
    the meta it just wrote.
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
    def store(self, path, frame, fingerprint: Optional[dict] = None) -> DataFrame:
        """Write ``frame`` as this file's column store; returns it mapped.

        ``frame`` is a frame, or the row pieces of one laid out alike (a
        parse's chunks before their concat, see
        :meth:`repro.frame.CSVChunkIterator.read_pieces`): each block file
        is then written piece by piece, and the whole frame is never
        assembled in memory.

        ``fingerprint`` is :meth:`fingerprint` taken before the text was
        read (default: taken now) and is recorded as given, so a source
        rewritten during its parse is stale at the next lookup instead of
        serving the old content under the new file's stamp.

        The returned frame is read back with the meta written here — no
        second ``meta.json`` read or fingerprint. When another writer
        installed the entry first, this one discards its own and returns
        the installed entry if it validates, else the frame it was given;
        a stale entry is renamed aside before the new one goes in and
        deleted only after, so the entry's name never points at a
        directory being deleted or half written.
        """
        path = str(path)
        pieces = [frame] if isinstance(frame, DataFrame) else list(frame)
        if not pieces or not all(_same_layout(pieces[0], p) for p in pieces[1:]):
            raise ValueError("store takes a frame, or row pieces of one laid out alike")
        fp = self.fingerprint(path) if fingerprint is None else fingerprint
        entry = self.entry_dir(path)
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=".tmp-", dir=self.cache_dir)
        installed = False
        try:
            meta = self._write(tmp, path, pieces, fp)
            installed = _rename_dir(tmp, entry)
            if not installed:
                theirs = self.lookup(path)
                if theirs is not None:
                    return theirs
                installed = self._replace_stale(tmp, entry)
                if not installed:  # lost to a third writer: serve the parse
                    return concat(pieces, axis=0, ignore_index=True)
        finally:
            if not installed:
                shutil.rmtree(tmp, ignore_errors=True)
        try:
            return self._read_entry(entry, meta)
        except _UNREADABLE:  # replaced under us by a newer writer
            return concat(pieces, axis=0, ignore_index=True)

    @staticmethod
    def _write(tmp: str, path: str, pieces: list, fp: dict) -> dict:
        """The entry's blocks and ``meta.json`` in ``tmp``; returns the meta.

        One C-order block per column dtype, so a 60k-column frame is a
        handful of files, each written from the pieces' own blocks.
        """
        nrows = sum(len(p) for p in pieces)
        codes, dtypes = _dtype_codes(pieces[:1])
        blocks = []
        for i, dtype in enumerate(dtypes):
            positions = np.flatnonzero(codes[0] == i)
            fname = f"block{i}.npy"
            block_path = os.path.join(tmp, fname)
            shape = (nrows, len(positions))
            matrices = (p._matrix(positions, dtype) for p in pieces)
            if dtype.hasobject:
                np.save(block_path, np.concatenate(list(matrices)), allow_pickle=True)
                offset = None
            else:
                offset = _write_npy(block_path, matrices, shape, dtype)
            blocks.append({
                "file": fname,
                "dtype": dtype.str,
                "shape": list(shape),
                "offset": offset,
                "pickled": dtype.hasobject,
                "spans": _spans(positions),
            })
        meta = {
            "version": _FORMAT_VERSION,
            "source": os.path.abspath(path),
            **fp,
            "nrows": nrows,
            "names": _encode_names(pieces[0].columns),
            "blocks": blocks,
        }
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            # dumps is the C encoder in one call; json.dump walks the
            # pure-Python one
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
        """The frame over the entry's mapped blocks, placed by their spans."""
        names, nrows = _decode_names(meta["names"]), meta["nrows"]
        blkno = np.full(len(names), -1, dtype=np.intp)
        blkloc = np.empty(len(names), dtype=np.intp)
        blocks = []
        for b, block in enumerate(meta["blocks"]):
            matrix = _map_block(os.path.join(entry, block["file"]), block)
            width = 0
            for start, stop in block["spans"]:
                blkno[start:stop] = b
                blkloc[start:stop] = np.arange(width, width + stop - start)
                width += stop - start
            if matrix.shape != (nrows, width):
                raise ValueError(f"{block['file']} is {matrix.shape}, its meta {(nrows, width)}")
            blocks.append(matrix)
        if (blkno < 0).any():
            raise ValueError("the meta places some column in no block")
        return DataFrame._from_blocks(names, blocks, blkno, blkloc, nrows)

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
