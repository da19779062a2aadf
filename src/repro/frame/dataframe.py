"""A minimal column-oriented DataFrame.

Just enough of the pandas surface for the CANDLE benchmarks: column
access, ``.values``, row slicing, ``concat`` (the optimized loader's
final step), ``astype``, and ``describe``-style introspection. Columns
are NumPy arrays; there is no index object — rows are positional,
matching the ``ignore_index=True`` concat the paper's fix uses.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.frame.dtypes import cast_to, dtype_of_array, promote

__all__ = ["DataFrame", "concat", "mmap_base", "resident_nbytes"]


def mmap_base(arr) -> Optional[np.memmap]:
    """The ``np.memmap`` ultimately backing ``arr``, or None.

    Column views taken off a memory-mapped cache block (slices, 2-D
    column selections, sub-frame shards) keep the mapping alive through
    their ``base`` chain; this walks the chain so accounting code can
    tell "bytes in shared page cache" from "bytes this process owns".
    """
    node = arr
    while isinstance(node, np.ndarray):
        if isinstance(node, np.memmap):
            return node
        node = node.base
    return None


def resident_nbytes(frame: "DataFrame") -> int:
    """Bytes of column storage this process *owns* (heap, not page cache).

    Memory-mapped columns count zero — their pages live in the shared
    OS page cache, so N ranks of a node mapping the same cache block
    pay for it once. In-memory columns are charged by their owning base
    buffer, deduplicated, so views of one block aren't double-counted.
    This is the per-rank number the zero-copy ingest path is judged by
    (``memory_usage`` stays the logical column-bytes total).
    """
    seen: set[int] = set()
    total = 0
    for arr in frame._columns.values():
        if mmap_base(arr) is not None:
            continue
        owner = _owner(arr)
        if id(owner) not in seen:
            seen.add(id(owner))
            total += owner.nbytes
    return total


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array at the end of ``arr``'s ``.base`` chain (``arr`` if it
    owns its data; the ``np.memmap`` for a view of a mapped block)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


#: runs are looked for only in columns at least this long. Reading a
#: column's data pointer (~1.3 µs through ``__array_interface__``) costs
#: what a strided copy of a 256–512-row float64 column does, so in
#: shorter columns finding a run costs more than its slab copy saves
#: (sweep: 200 / 1,209 / 4,838 columns × 64–4,096 rows, 2-core Xeon)
_RUN_MIN_ROWS = 512


def _column_runs(cols: Sequence[np.ndarray], dtype: np.dtype):
    """``(start, stop)`` of each run of ``cols``, in order.

    A run is adjacent columns that lie side by side in one buffer: views
    (not owners) of the same owning array, with the same strides, data
    pointers exactly ``dtype.itemsize`` apart, and ``dtype`` itself. Its
    columns are then the columns of one 2-D strided view of that buffer.
    Every other column is a run of one, and so is every column shorter
    than ``_RUN_MIN_ROWS``. Owners, strides and dtypes are compared
    first, so a data pointer is read only inside a candidate group.
    """
    j, n = 0, len(cols)
    probe = len(cols[0]) >= _RUN_MIN_ROWS
    while j < n:
        first, stop = cols[j], j + 1
        if probe and first.base is not None and first.dtype == dtype:
            owner, strides = _owner(first), first.strides
            while stop < n:
                col = cols[stop]
                if col.base is None or col.dtype != dtype or col.strides != strides:
                    break
                if col.base is not first.base and _owner(col) is not owner:
                    break
                stop += 1
        if stop - j == 1:
            yield j, stop
        else:
            ptrs = np.array([a.__array_interface__["data"][0] for a in cols[j:stop]])
            cuts = j + 1 + np.flatnonzero(np.diff(ptrs) != dtype.itemsize)
            edges = [j, *cuts.tolist(), stop]
            yield from zip(edges[:-1], edges[1:])
        j = stop


def _stack_columns(cols: Sequence[np.ndarray]) -> np.ndarray:
    """``np.column_stack(cols)`` for 1-D columns, one slab copy per run.

    Same dtype (the concatenation rule), same C order, same bytes. A run
    (see :func:`_column_runs`) is copied as one 2-D slab, any other
    column on its own as ``column_stack`` does: a cache block's columns,
    or a parsed chunk's, become one memcpy-like copy instead of
    thousands of strided column copies (16 against 45 ms, probing
    included, for a 1,120 × 4,839 frame off the column-store cache).
    """
    # one zero-row slice per distinct dtype: concatenate resolves the
    # output dtype exactly as it does for column_stack
    dtype = np.concatenate([a[:0] for a in {a.dtype: a for a in cols}.values()]).dtype
    nrows = len(cols[0])
    out = np.empty((nrows, len(cols)), dtype=dtype)
    if nrows == 0:
        return out
    for start, stop in _column_runs(cols, dtype):
        first = cols[start]
        if stop - start == 1:
            out[:, start] = first
        else:
            out[:, start:stop] = as_strided(
                first, (nrows, stop - start), (first.strides[0], dtype.itemsize),
                writeable=False,
            )
    return out


class DataFrame:
    """Column-oriented frame: ordered mapping of name → 1-D array."""

    def __init__(self, data: Mapping[object, np.ndarray] | None = None):
        self._columns: dict = {}
        nrows = None
        for name, values in (data or {}).items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got {arr.ndim}-D")
            if nrows is None:
                nrows = len(arr)
            elif len(arr) != nrows:
                raise ValueError(
                    f"column {name!r} has {len(arr)} rows, expected {nrows}"
                )
            self._columns[name] = arr
        self._nrows = nrows or 0

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray], names: Sequence | None = None) -> "DataFrame":
        """Build from a list of column arrays with optional names."""
        names = list(names) if names is not None else list(range(len(arrays)))
        if len(names) != len(arrays):
            raise ValueError("names and arrays must have equal length")
        return cls(dict(zip(names, arrays)))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, names: Sequence | None = None) -> "DataFrame":
        """Build from a 2-D array, one column per matrix column."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"expected 2-D matrix, got {matrix.ndim}-D")
        names = list(names) if names is not None else list(range(matrix.shape[1]))
        return cls({n: matrix[:, j].copy() for j, n in enumerate(names)})

    # -- basic protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, len(self._columns))

    @property
    def columns(self) -> list:
        return list(self._columns)

    @property
    def dtypes(self) -> dict:
        return {n: dtype_of_array(a) for n, a in self._columns.items()}

    def __len__(self) -> int:
        return self._nrows

    def __contains__(self, name) -> bool:
        return name in self._columns

    def __getitem__(self, key):
        """Column by name, or a sub-frame for a list of names."""
        if isinstance(key, list):
            missing = [k for k in key if k not in self._columns]
            if missing:
                raise KeyError(f"columns not found: {missing}")
            return DataFrame({k: self._columns[k] for k in key})
        try:
            return self._columns[key]
        except KeyError:
            raise KeyError(f"column {key!r} not found") from None

    def __setitem__(self, name, values) -> None:
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = np.full(self._nrows, values)
        if self._columns and len(arr) != self._nrows:
            raise ValueError(
                f"column length {len(arr)} != frame length {self._nrows}"
            )
        if not self._columns:
            self._nrows = len(arr)
        self._columns[name] = arr

    # -- selection -------------------------------------------------------------
    def iloc(self, rows) -> "DataFrame":
        """Positional row selection (slice, index array, or boolean mask)."""
        return DataFrame({n: a[rows] for n, a in self._columns.items()})

    def head(self, n: int = 5) -> "DataFrame":
        return self.iloc(slice(0, n))

    def drop(self, columns: Iterable) -> "DataFrame":
        """Return a frame without the given columns."""
        drop = set(columns if not isinstance(columns, (str, int)) else [columns])
        missing = drop - set(self._columns)
        if missing:
            raise KeyError(f"columns not found: {sorted(missing, key=str)}")
        return DataFrame({n: a for n, a in self._columns.items() if n not in drop})

    # -- conversion -------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """2-D array; columns are promoted to a common dtype."""
        return self.to_numpy()

    def to_numpy(self, dtype=None) -> np.ndarray:
        if not self._columns:
            return np.empty((0, 0))
        if dtype is None:
            common = "int64"
            for a in self._columns.values():
                common = promote(common, dtype_of_array(a))
            cols = [cast_to(a, common) for a in self._columns.values()]
        else:
            # the stack copies, so the result is fresh either way
            cols = [a.astype(dtype, copy=False) for a in self._columns.values()]
        return _stack_columns(cols)

    def astype(self, dtype) -> "DataFrame":
        """Cast every column to a NumPy dtype."""
        return DataFrame({n: a.astype(dtype) for n, a in self._columns.items()})

    def memory_usage(self) -> int:
        """Total bytes held by column buffers."""
        return int(sum(a.nbytes for a in self._columns.values()))

    def resident_nbytes(self) -> int:
        """Owned (non-memory-mapped) bytes; see :func:`resident_nbytes`."""
        return resident_nbytes(self)

    def to_csv(self, path, header: bool = False, float_fmt: str = "%.6g") -> int:
        """Write the frame to a CSV file; returns bytes written."""
        from repro.frame.writer import write_csv

        return write_csv(
            path,
            self.to_numpy(),
            header=[str(c) for c in self.columns] if header else None,
            float_fmt=float_fmt,
        )

    # -- statistics ----------------------------------------------------------
    def describe(self) -> "DataFrame":
        """Per-numeric-column summary: count, mean, std, min, max.

        Returned as a frame whose first column names the statistic.
        """
        numeric = [
            n for n, a in self._columns.items() if a.dtype.kind in "iuf"
        ]
        if not numeric:
            raise ValueError("no numeric columns to describe")
        stats = {"stat": np.array(["count", "mean", "std", "min", "max"], dtype=object)}
        for n in numeric:
            col = self._columns[n].astype(np.float64)
            finite = col[np.isfinite(col)]
            if finite.size:
                values = [
                    float(finite.size),
                    float(finite.mean()),
                    float(finite.std()),
                    float(finite.min()),
                    float(finite.max()),
                ]
            else:
                values = [0.0, np.nan, np.nan, np.nan, np.nan]
            stats[n] = np.array(values)
        return DataFrame(stats)

    def isna(self) -> "DataFrame":
        """Boolean mask of missing values (NaN in float/object columns)."""
        out = {}
        for n, a in self._columns.items():
            if a.dtype.kind == "f":
                out[n] = np.isnan(a)
            elif a.dtype == object:
                out[n] = np.array(
                    [isinstance(v, float) and np.isnan(v) for v in a]
                )
            else:
                out[n] = np.zeros(len(a), dtype=bool)
        return DataFrame(out)

    def fillna(self, value: float) -> "DataFrame":
        """Replace NaNs with ``value`` (float and object columns)."""
        out = {}
        for n, a in self._columns.items():
            if a.dtype.kind == "f":
                col = a.copy()
                col[np.isnan(col)] = value
                out[n] = col
            elif a.dtype == object:
                out[n] = np.array(
                    [
                        value if isinstance(v, float) and np.isnan(v) else v
                        for v in a
                    ],
                    dtype=object,
                )
            else:
                out[n] = a
        return DataFrame(out)

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
        if not isinstance(other, DataFrame):
            return False
        if self.columns != other.columns or self.shape != other.shape:
            return False
        for n in self._columns:
            a, b = self._columns[n], other._columns[n]
            if a.dtype == object or b.dtype == object:
                if not all(_eq(x, y) for x, y in zip(a, b)):
                    return False
            elif not np.array_equal(a, b, equal_nan=True):
                return False
        return True

    def __repr__(self):
        return f"<DataFrame {self._nrows} rows x {len(self._columns)} cols>"


def _eq(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return x == y or (np.isnan(x) and np.isnan(y))
    return x == y


def concat(frames: Sequence[DataFrame], axis: int = 0, ignore_index: bool = True) -> DataFrame:
    """Row-wise concatenation of frames with identical columns.

    This is the tail of the paper's optimized loader:
    ``pd.concat(chunks, axis=0, ignore_index=True)``. Column dtypes are
    promoted on the int64 < float64 < object lattice when chunks
    disagree (the source of pandas's DtypeWarning with low_memory).
    """
    if axis != 0:
        raise NotImplementedError("only axis=0 concatenation is supported")
    frames = list(frames)
    if not frames:
        raise ValueError("cannot concat an empty list of frames")
    if len(frames) == 1:
        return frames[0]
    first_cols = frames[0].columns
    for f in frames[1:]:
        if f.columns != first_cols:
            raise ValueError("all frames must share the same columns, in order")
    out: dict = {}
    for name in first_cols:
        parts = [f[name] for f in frames]
        common = "int64"
        for p in parts:
            common = promote(common, dtype_of_array(p))
        out[name] = np.concatenate([cast_to(p, common) for p in parts])
    return DataFrame(out)
