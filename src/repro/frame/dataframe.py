"""A minimal DataFrame over 2-D blocks, pandas' BlockManager in miniature.

Just enough of the pandas surface for the CANDLE benchmarks. Rows are
positional (no index object), matching the ``ignore_index=True`` concat
the paper's fix uses. A frame holds a few ``(rows, k)`` blocks and each
column's placement: its block (``_blkno``) and index there
(``_blkloc``). A parsed chunk is a float64 and an int64 block, a cache
entry one mapped block per dtype, a dict one block per array. Columns
are views; selections share blocks, ``iloc`` slices them, and
``concat`` and ``to_numpy`` copy block by block.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.frame.dtypes import cast_to, dtype_of_array, promote
from repro.frame.writer import write_csv

__all__ = ["DataFrame", "concat", "mmap_base", "resident_nbytes"]


def mmap_base(arr) -> Optional[np.memmap]:
    """The ``np.memmap`` at the end of ``arr``'s ``base`` chain, or None:
    views off a mapped cache block (slices, column selections, shards)
    keep the mapping alive, and accounting tells page cache from heap."""
    node = arr
    while isinstance(node, np.ndarray):
        if isinstance(node, np.memmap):
            return node
        node = node.base
    return None


def resident_nbytes(frame: "DataFrame") -> int:
    """Bytes of block storage this process *owns* (heap, not page cache).

    Mapped blocks count zero: N ranks of a node mapping one cache block
    share its page-cache pages. Other blocks are charged by their owning
    buffer, once per buffer. This is the per-rank number the zero-copy
    ingest path is judged by (``memory_usage`` is the logical total).
    """
    owners = {id(o): o for o in (_owner(b) for b in frame._blocks if mmap_base(b) is None)}
    return sum(o.nbytes for o in owners.values())


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array at the end of ``arr``'s ``.base`` chain (``arr`` if it
    owns its data; the ``np.memmap`` for a view of a mapped block)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _as_slice(idx: np.ndarray):
    """Non-empty ``idx`` as a slice (a view, not a gather) if it is a run."""
    if len(idx) == 1 or (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[0]) + len(idx))
    return idx


def _na_mask(block: np.ndarray) -> np.ndarray:
    """NaN cells of a block: float NaNs, and float NaN objects."""
    if block.dtype.kind == "f":
        return np.isnan(block)
    if block.dtype != object:
        return np.zeros(block.shape, dtype=bool)
    isnan = [isinstance(v, float) and np.isnan(v) for row in block.tolist() for v in row]
    return np.array(isnan, dtype=bool).reshape(block.shape)


class DataFrame:
    """Block-backed frame: ordered, unique column names over 2-D blocks."""

    def __init__(self, data: Mapping[object, np.ndarray] | None = None):
        cols, nrows = {name: np.asarray(values) for name, values in (data or {}).items()}, 0
        for i, (name, arr) in enumerate(cols.items()):
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got {arr.ndim}-D")
            if i and len(arr) != nrows:
                raise ValueError(f"column {name!r} has {len(arr)} rows, expected {nrows}")
            nrows = len(arr)
        blocks = [a[:, None] for a in cols.values()]
        self._set(cols, blocks, np.arange(len(cols)), np.zeros(len(cols)), nrows)

    @classmethod
    def _from_blocks(cls, names, blocks, blkno, blkloc, nrows: int) -> "DataFrame":
        """No copy: column ``names[i]`` is ``blocks[blkno[i]][:, blkloc[i]]``."""
        frame = cls.__new__(cls)
        frame._set(names, blocks, blkno, blkloc, nrows)
        return frame

    def _set(self, names, blocks, blkno, blkloc, nrows: int) -> None:
        blkno, blkloc = np.intp(blkno), np.intp(blkloc)
        if not isinstance(names, range):  # a range (a cache hit's names) is unique already
            names = list(names)
            if len(set(names)) != len(names):  # first position, last column: a dict's rule
                index = dict(zip(names, range(len(names))))
                names, keep = list(index), list(index.values())
                blkno, blkloc = blkno[keep], blkloc[keep]
        used = np.bincount(blkno, minlength=len(blocks)) > 0
        if not used.all():  # drop the blocks no column is placed in
            blocks = [b for b, u in zip(blocks, used) if u]
            blkno = (np.cumsum(used) - 1)[blkno]
        self.__dict__.pop("_index", None)
        self._names, self._blocks, self._blkno, self._blkloc = names, list(blocks), blkno, blkloc
        self._nrows = nrows if names else 0

    @cached_property
    def _index(self) -> dict:
        """Name → position, built at the first lookup by name."""
        return dict(zip(self._names, range(len(self._names))))

    def _groups(self):
        """``(block, positions, locs)`` per block: its columns' ascending
        frame positions and block indices, slices where they are runs."""
        order = np.argsort(self._blkno, kind="stable")
        ends = np.cumsum(np.bincount(self._blkno, minlength=len(self._blocks))).tolist()
        start = 0
        for block, end in zip(self._blocks, ends):
            pos = order[start:end]
            yield block, _as_slice(pos), _as_slice(self._blkloc[pos])
            start = end

    def _map_blocks(self, fn) -> "DataFrame":
        """``fn`` of each block, cut to the columns placed in it."""
        blocks, blkloc = [], self._blkloc.copy()
        for block, pos, locs in self._groups():
            if isinstance(locs, slice):
                blkloc[pos] = np.arange(locs.stop - locs.start)
            else:
                locs, blkloc[pos] = np.unique(locs, return_inverse=True)
            blocks.append(fn(block[:, locs]))
        nrows = len(blocks[0]) if blocks else 0
        return DataFrame._from_blocks(self._names, blocks, self._blkno, blkloc, nrows)

    def _take(self, positions) -> "DataFrame":
        """The columns at (distinct) ``positions``, over the same blocks."""
        names = [self._names[i] for i in positions]
        blkno, blkloc = self._blkno[positions], self._blkloc[positions]
        return DataFrame._from_blocks(names, self._blocks, blkno, blkloc, self._nrows)

    def _matrix(self, positions, dtype) -> np.ndarray:
        """The columns at ``positions`` (a slice, or an array of frame
        positions) as one 2-D ``dtype`` matrix. When they are a run of one
        block, it is a view of that block if the dtype is the one asked,
        else one cast of the run; otherwise a block-by-block copy. Either
        way the bits are ``to_numpy(dtype)``'s. No positions give an
        ``(nrows, 0)`` matrix."""
        blkno, blkloc = self._blkno[positions], self._blkloc[positions]
        if not len(blkno):
            return np.empty((self._nrows, 0), dtype)
        if (blkno == blkno[0]).all() and (blkloc[1:] - blkloc[:-1] == 1).all():
            start = int(blkloc[0])
            run = self._blocks[blkno[0]][:, start : start + len(blkloc)]
            return run if run.dtype == dtype else run.astype(dtype, order="C")
        if isinstance(positions, slice):
            positions = np.arange(len(self._names))[positions]
        return self._take(positions).to_numpy(dtype)

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray], names: Sequence | None = None) -> "DataFrame":
        """Build from a list of column arrays with optional names."""
        names = list(names if names is not None else range(len(arrays)))
        if len(names) != len(arrays):
            raise ValueError("names and arrays must have equal length")
        return cls(dict(zip(names, arrays)))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, names: Sequence | None = None) -> "DataFrame":
        """Build from a 2-D array (copied), one column per matrix column."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"expected 2-D matrix, got {matrix.ndim}-D")
        names = list(names if names is not None else range(matrix.shape[1]))
        blkno, blkloc = np.zeros(len(names)), np.arange(len(names))
        return cls._from_blocks(names, [matrix.copy()], blkno, blkloc, len(matrix))

    # -- basic protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, len(self._names))

    @property
    def columns(self) -> list:
        return list(self._names)

    @property
    def dtypes(self) -> dict:
        kinds = [dtype_of_array(b) for b in self._blocks]
        return {n: kinds[b] for n, b in zip(self._names, self._blkno.tolist())}

    def __len__(self) -> int:
        return self._nrows

    def __contains__(self, name) -> bool:
        return name in self._index

    def __getitem__(self, key):
        """Column by name (a view), or a sub-frame for a list of names."""
        if isinstance(key, list):
            missing = [k for k in key if k not in self._index]
            if missing:
                raise KeyError(f"columns not found: {missing}")
            return self._take([self._index[k] for k in dict.fromkeys(key)])
        try:
            pos = self._index[key]
        except KeyError:
            raise KeyError(f"column {key!r} not found") from None
        return self._blocks[self._blkno[pos]][:, self._blkloc[pos]]

    def __setitem__(self, name, values) -> None:
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = np.full(self._nrows, values)
        if arr.ndim != 1:
            raise ValueError(f"column {name!r} must be 1-D, got {arr.ndim}-D")
        if self._names and len(arr) != self._nrows:
            raise ValueError(f"column length {len(arr)} != frame length {self._nrows}")
        pos = self._index.get(name, len(self._names))
        names = self._names if pos < len(self._names) else [*self._names, name]
        # new placement arrays: frames sliced off this one share the old
        blkno = np.append(self._blkno, 0)[: len(names)]
        blkloc = np.append(self._blkloc, 0)[: len(names)]
        blkno[pos], blkloc[pos] = len(self._blocks), 0
        self._set(names, [*self._blocks, arr[:, None]], blkno, blkloc, len(arr))

    # -- selection -------------------------------------------------------------
    def iloc(self, rows) -> "DataFrame":
        """Positional row selection (slice, index array, or boolean mask);
        a slice keeps every block a view (a mapped block stays mapped)."""
        if not isinstance(rows, slice):
            return self._map_blocks(lambda block: block[rows])
        blocks, nrows = [b[rows] for b in self._blocks], len(range(self._nrows)[rows])
        return DataFrame._from_blocks(self._names, blocks, self._blkno, self._blkloc, nrows)

    def head(self, n: int = 5) -> "DataFrame":
        return self.iloc(slice(0, n))

    def drop(self, columns: Iterable) -> "DataFrame":
        """Return a frame without the given columns."""
        drop = set(columns if not isinstance(columns, (str, int)) else [columns])
        missing = drop - set(self._index)
        if missing:
            raise KeyError(f"columns not found: {sorted(missing, key=str)}")
        return self._take([i for i, n in enumerate(self._names) if n not in drop])

    # -- conversion -------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """2-D array; columns are promoted to a common dtype."""
        return self.to_numpy()

    def to_numpy(self, dtype=None) -> np.ndarray:
        """A fresh 2-D array, copied block by block: each block's columns
        cast at once (to the frame's common dtype, or ``dtype``), into the
        dtype ``np.column_stack`` of the cast columns has."""
        if not self._names:
            return np.empty((0, 0))
        common = reduce(promote, (dtype_of_array(b) for b in self._blocks), "int64")
        parts = [(cast_to(b[:, locs], common) if dtype is None else
                  b[:, locs].astype(dtype, copy=False), pos) for b, pos, locs in self._groups()]
        # concatenate resolves the dtype exactly as it does for column_stack
        out_dtype = np.concatenate([np.empty(0, d) for d in {p.dtype for p, _ in parts}]).dtype
        out = np.empty((self._nrows, len(self._names)), dtype=out_dtype)
        for part, pos in parts:
            out[:, pos] = part
        return out

    def astype(self, dtype) -> "DataFrame":
        """Cast every column to a NumPy dtype."""
        return self._map_blocks(lambda block: block.astype(dtype))

    def memory_usage(self) -> int:
        """Total bytes held by column buffers."""
        itemsizes = np.array([b.itemsize for b in self._blocks], dtype=np.int64)
        return int(itemsizes[self._blkno].sum()) * self._nrows

    def resident_nbytes(self) -> int:
        """Owned (non-memory-mapped) bytes; see :func:`resident_nbytes`."""
        return resident_nbytes(self)

    def to_csv(self, path, header: bool = False, float_fmt: str = "%.6g") -> int:
        """Write the frame to a CSV file; returns bytes written."""
        header = [str(c) for c in self.columns] if header else None
        return write_csv(path, self.to_numpy(), header=header, float_fmt=float_fmt)

    # -- statistics ----------------------------------------------------------
    def describe(self) -> "DataFrame":
        """Per-numeric-column summary: count, mean, std, min, max.

        Returned as a frame whose first column names the statistic.
        """
        numeric = [n for n in self._names if self[n].dtype.kind in "iuf"]
        if not numeric:
            raise ValueError("no numeric columns to describe")
        stats = {"stat": np.array(["count", "mean", "std", "min", "max"], dtype=object)}
        for n in numeric:
            col = self[n].astype(np.float64)
            finite = col[np.isfinite(col)]
            stats[n] = np.array([
                finite.size, finite.mean(), finite.std(), finite.min(), finite.max()
            ] if finite.size else [0.0, np.nan, np.nan, np.nan, np.nan], dtype=np.float64)
        return DataFrame(stats)

    def isna(self) -> "DataFrame":
        """Boolean mask of missing values (NaN in float/object columns)."""
        return self._map_blocks(_na_mask)

    def fillna(self, value: float) -> "DataFrame":
        """Replace NaNs with ``value`` (float and object columns)."""

        def fill(block):
            if block.dtype.kind not in "fO":
                return block
            out = block.copy()
            out[_na_mask(block)] = value
            return out

        return self._map_blocks(fill)

    def dropna(self) -> "DataFrame":
        """Drop rows containing any missing value."""
        mask = ~np.any(self.isna().to_numpy(dtype=bool), axis=1)
        return self.iloc(mask)

    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> "DataFrame":
        """``n`` rows drawn without replacement (seeded via ``rng``)."""
        if not 0 < n <= self._nrows:
            raise ValueError(f"cannot sample {n} rows from {self._nrows}")
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(self._nrows, size=n, replace=False)
        return self.iloc(np.sort(idx))

    def equals(self, other: "DataFrame") -> bool:
        """Exact equality of column names, order, and values (NaN == NaN)."""
        if not isinstance(other, DataFrame) or (self.columns, self.shape) != (
            other.columns, other.shape
        ):
            return False
        for a, b in ((self[n], other[n]) for n in self._names):
            if object in (a.dtype, b.dtype):
                if not all(_eq(x, y) for x, y in zip(a, b)):
                    return False
            elif not np.array_equal(a, b, equal_nan=True):
                return False
        return True

    def __repr__(self):
        return f"<DataFrame {self._nrows} rows x {len(self._names)} cols>"


def _eq(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return x == y or (np.isnan(x) and np.isnan(y))
    return x == y


def _same_layout(a: DataFrame, b: DataFrame) -> bool:
    """Same block dtypes and widths, and every column placed alike."""
    return len(a._blocks) == len(b._blocks) and all(
        x.dtype == y.dtype and x.shape[1] == y.shape[1] for x, y in zip(a._blocks, b._blocks)
    ) and np.array_equal(a._blkno, b._blkno) and np.array_equal(a._blkloc, b._blkloc)


def _dtype_codes(frames: Sequence[DataFrame]) -> tuple[np.ndarray, list]:
    """``(codes, dtypes)``: ``codes[k, j]`` indexes ``dtypes`` with the
    dtype of column ``j`` in ``frames[k]``."""
    dtypes: dict = {}
    ids = [np.intp([dtypes.setdefault(b.dtype, len(dtypes)) for b in f._blocks]) for f in frames]
    return np.intp([i[f._blkno] for i, f in zip(ids, frames)]), list(dtypes)


def _conform(frames: list) -> list:
    """Unless they are laid out alike already, recast each of ``frames``
    in place, one at a time, to the layout of their concat: each column
    in the dtype the per-column rule gives it (promote the frames'
    dtypes on the lattice, cast, concatenate), one block per dtype.
    Returns the names of the columns whose dtype class differs across the
    frames and whose concat is therefore ``object``, in column order: the
    list pandas's DtypeWarning gives (an int64 chunk beside a float64 one
    promotes to float64 without a warning)."""
    if all(_same_layout(frames[0], f) for f in frames[1:]):
        return []
    codes, dtypes = _dtype_codes(frames)
    sigs, column_sig = np.unique(codes.T, axis=0, return_inverse=True)
    sig_dtypes, sig_mixed = [], []
    for sig in sigs.tolist():
        parts = [np.empty(0, dtypes[c]) for c in sig]
        kinds = [dtype_of_array(p) for p in parts]
        common = reduce(promote, kinds, "int64")
        sig_dtypes.append(np.concatenate([cast_to(p, common) for p in parts]).dtype)
        sig_mixed.append(len(set(kinds)) > 1 and common == "object")
    out_dtypes = list(dict.fromkeys(sig_dtypes))
    column_sig = column_sig.reshape(-1)
    blkno = np.intp([out_dtypes.index(d) for d in sig_dtypes])[column_sig]
    groups = [(d, np.flatnonzero(blkno == b)) for b, d in enumerate(out_dtypes)]
    blkloc = np.zeros(len(blkno))
    for _, pos in groups:
        blkloc[pos] = np.arange(len(pos))
    for i, f in enumerate(frames):
        blocks = [np.empty((len(f), len(pos)), d) for d, pos in groups]
        for out, (_, pos) in zip(blocks, groups):
            for block, p, locs in f._take(pos)._groups():
                out[:, p] = block[:, locs]  # the cast concatenate would make
        frames[i] = DataFrame._from_blocks(f._names, blocks, blkno, blkloc, len(f))
    return [frames[0]._names[j] for j in np.flatnonzero(np.array(sig_mixed)[column_sig])]


def concat(frames: Sequence[DataFrame], axis: int = 0, ignore_index: bool = True) -> DataFrame:
    """Row-wise concatenation of frames with identical columns.

    The tail of the paper's optimized loader, ``pd.concat(chunks,
    axis=0, ignore_index=True)``: one ``np.concatenate`` per block.
    Frames laid out differently are first recast to one layout
    (:func:`_conform`), where a column whose dtypes differ is promoted on
    the int64 < float64 < object lattice (pandas's DtypeWarning case when
    it ends ``object``).
    """
    if axis != 0:
        raise NotImplementedError("only axis=0 concatenation is supported")
    frames = list(frames)
    if not frames:
        raise ValueError("cannot concat an empty list of frames")
    if len(frames) == 1:
        return frames[0]
    first = frames[0]
    if any(f.columns != first.columns for f in frames[1:]):  # by value: a range or a list
        raise ValueError("all frames must share the same columns, in order")
    _conform(frames)
    blocks = [np.concatenate(parts) for parts in zip(*(f._blocks for f in frames))]
    first, nrows = frames[0], sum(len(f) for f in frames)
    return DataFrame._from_blocks(first._names, blocks, first._blkno, first._blkloc, nrows)
