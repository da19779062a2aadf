"""repro.frame — a from-scratch CSV/DataFrame engine (the pandas substitute).

The paper's headline optimization is entirely about ``pandas.read_csv``:
the CANDLE benchmarks load 55 MB-771 MB CSV files with the default
``low_memory=True`` parser, which processes the file in small internal
chunks with per-chunk dtype inference — slow for the wide-row genomics
files (60,483 columns). The fix is chunked reading with
``low_memory=False`` (large chunks, bulk conversion), giving 3-7x.

This package reimplements both code paths honestly so the speedup — and
its *shape* (large for wide-row files, negligible for the narrow-row
P1B3 file) — emerges from the same mechanism at any scale:

- :func:`repro.frame.read_csv` — both ``low_memory`` paths, ``chunksize``
  iteration, header handling.
- :class:`repro.frame.DataFrame` — a minimal column-oriented frame.
- :func:`repro.frame.concat` — row-wise concatenation (the paper's
  optimized loader ends with ``pd.concat(chunks, axis=0)``).
- :class:`repro.frame.PartitionedCSVReader` — the Dask-DataFrame-like
  comparator the paper also measured ("better than the original method
  but worse than data loading in chunks with low_memory=False").
- :func:`repro.frame.write_csv` — used by the synthetic workload
  generators to produce benchmark files.
"""

from repro.frame.dataframe import DataFrame, concat, mmap_base, resident_nbytes
from repro.frame.csv import CSVChunkIterator, read_csv
from repro.frame.dask_like import PartitionedCSVReader
from repro.frame.dtypes import infer_column_dtype, parse_value
from repro.frame.writer import write_csv

__all__ = [
    "DataFrame",
    "concat",
    "read_csv",
    "CSVChunkIterator",
    "PartitionedCSVReader",
    "infer_column_dtype",
    "parse_value",
    "write_csv",
    "mmap_base",
    "resident_nbytes",
]
