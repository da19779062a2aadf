"""Microbenchmark: the data plane on generated NT3-geometry files.

Four sections, one JSON artifact:

- **modes** — the real parsers behind ``DataSource`` (serial chunked,
  span-parallel, cached miss/hit) on a wide-row NT3-shaped file, with
  bit-identity checks across every mode.
- **parser** — an asv-style matrix over the column-conversion engines:
  converters (sampled reference vs vectorized dispatch) x comments
  (plain vs ``#``-commented) x dtype paths (int64 / float64 / NA-laden
  float) x geometry (wide vs narrow), plus the headline A/B on an
  NT3-geometry file with NA spellings — the case the vectorized
  ladder exists for.
- **prefetch** — NT3 training fed by :class:`repro.ingest.EpochPrefetcher`
  (background epoch loads from the mmap cache) vs the same prefetcher in
  synchronous mode: measures the hidden/waited split and checks the
  trained weights are bit-identical.
- **mmap** — per-rank resident bytes at 6 ranks/node: every rank holding
  the full parsed frame vs zero-copy mmap shard views materialized only
  for the rank's own rows.

Run standalone::

    python benchmarks/bench_ingest.py --smoke                  # CI-sized
    python benchmarks/bench_ingest.py --full                   # asserts
    python benchmarks/bench_ingest.py --smoke --json OUT.json  # artifact

``--full`` additionally asserts the acceptance thresholds: parallel
>= 2x serial chunked and cached hit >= 10x any text parse (modes),
vectorized parser >= 1.5x the reference on the NA-laden NT3 file,
prefetch hides >= 80% of epoch load time, and mmap sharding cuts
per-rank resident bytes >= 4x at 6 ranks. Under pytest the smoke path
runs as a test; the full path is opt-in (needs >1 CPU and the
``INGEST_BENCH_FULL=1`` environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import pytest

from repro.candle import get_benchmark
import repro.frame.csv as csv_mod
from repro.frame import read_csv
from repro.ingest import (
    DataSource,
    EpochPrefetcher,
    LoaderConfig,
    ShardSpec,
    epoch_shard_order,
    load_benchmark_data,
)
from repro.telemetry.report import format_table

#: generated-file geometry: NT3's wide rows at two sizes
SMOKE_SHAPE = dict(scale=0.02, sample_scale=0.1)   # ~0.5 MB
FULL_SHAPE = dict(scale=1.0, sample_scale=0.25)    # >= 100 MB

#: training geometry for the prefetch section (full keeps the model
#: small enough that six epochs finish in tens of seconds — the gate is
#: about the hidden fraction, not the file size)
SMOKE_TRAIN = dict(shape=dict(scale=0.02, sample_scale=0.1), epochs=3)
FULL_TRAIN = dict(shape=dict(scale=0.05, sample_scale=0.5), epochs=6)

#: ranks per node for the residency section (the paper's 6 ranks/node
#: Summit placement)
RESIDENCY_RANKS = 6


def generate_nt3_file(dirpath, shape: dict) -> str:
    bench = get_benchmark("nt3", **shape)
    train, _ = bench.write_files(dirpath, rng=np.random.default_rng(0))
    return str(train)


# ---------------------------------------------------------------------------
# section 1: DataSource modes
# ---------------------------------------------------------------------------

def run_modes(path: str, cache_dir: str) -> list[dict]:
    """Load ``path`` with every benched mode; returns timing/identity rows."""
    modes = [
        ("chunked (serial)", LoaderConfig(method="chunked")),
        ("parallel", LoaderConfig(method="parallel")),
        ("cached (miss)", LoaderConfig(method="cached", cache_dir=cache_dir)),
        ("cached (hit)", LoaderConfig(method="cached", cache_dir=cache_dir)),
    ]
    source = DataSource(path)
    rows, ref = [], None
    for label, config in modes:
        result = source.load(config)
        if ref is None:
            ref = result.frame
        rows.append(
            {
                "mode": label,
                "seconds": round(result.seconds, 3),
                "rows": result.rows,
                "resident_mb": round(result.frame.resident_nbytes() / 1e6, 2),
                "identical": result.frame.equals(ref),
            }
        )
    return rows


def assert_modes_criteria(rows: list[dict]) -> None:
    """The acceptance thresholds for the >= 100 MB file."""
    t = {r["mode"]: r["seconds"] for r in rows}
    assert all(r["identical"] for r in rows), rows
    parallel_speedup = t["chunked (serial)"] / t["parallel"]
    assert parallel_speedup >= 2.0, (
        f"parallel only {parallel_speedup:.2f}x over serial chunked"
    )
    fastest_text = min(t["chunked (serial)"], t["parallel"], t["cached (miss)"])
    cached_speedup = fastest_text / t["cached (hit)"]
    assert cached_speedup >= 10.0, (
        f"cached reload only {cached_speedup:.2f}x over the fastest text parse"
    )


# ---------------------------------------------------------------------------
# section 2: parser matrix
# ---------------------------------------------------------------------------

def _write_cell_csv(path: str, rows: int, cols: int, dtype_path: str,
                    commented: bool, rng: np.random.Generator) -> None:
    """One matrix cell's file: geometry x dtype path x comment lines."""
    if dtype_path == "int":
        toks = np.char.mod("%d", rng.integers(0, 1000, size=(rows, cols)))
    else:
        toks = np.char.mod("%.6g", rng.normal(size=(rows, cols)))
        if dtype_path == "missing":
            # every column sees an NA spelling (so sampled inference and
            # the dispatch ladder both take their missing-value path)
            toks[0, :] = "na"
            mask = rng.random((rows, cols)) < 0.005
            toks = np.where(mask, "na", toks)
    with open(path, "w") as fh:
        for r in range(rows):
            if commented and r % 32 == 0:
                fh.write("# generated comment line\n")
            fh.write(",".join(toks[r]) + "\n")


def _time_parse(path: str, vectorized: bool, comment) -> tuple[float, object]:
    """Time ``read_csv`` with the fast engine, or with the sampled
    reference engine in its place (same framing, same chunking)."""
    engine = csv_mod._parse_chunk_fast if vectorized else csv_mod._parse_chunk_reference
    with mock.patch.object(csv_mod, "_parse_chunk_fast", engine):
        t0 = time.perf_counter()
        frame = read_csv(path, header=None, low_memory=False, comment=comment)
    return time.perf_counter() - t0, frame


def run_parser_matrix(tmp: str, full: bool) -> dict:
    """The converters x comments x dtype-paths x geometry sweep, plus the
    headline reference-vs-vectorized A/B on the NA-laden NT3 file."""
    if full:
        geometries = {"wide": (200, 8000), "narrow": (100_000, 12)}
    else:
        geometries = {"wide": (24, 800), "narrow": (2000, 8)}
    rng = np.random.default_rng(7)
    matrix, identical = [], True
    for geom, (rows, cols) in geometries.items():
        for dtype_path in ("int", "float", "missing"):
            for commented in (False, True):
                path = os.path.join(
                    tmp, f"cell_{geom}_{dtype_path}_{int(commented)}.csv"
                )
                _write_cell_csv(path, rows, cols, dtype_path, commented, rng)
                comment = "#" if commented else None
                t_ref, ref = _time_parse(path, vectorized=False, comment=comment)
                t_vec, vec = _time_parse(path, vectorized=True, comment=comment)
                same = vec.equals(ref)
                identical = identical and same
                matrix.append(
                    {
                        "geometry": geom,
                        "dtype_path": dtype_path,
                        "comments": commented,
                        "ref_s": round(t_ref, 4),
                        "vec_s": round(t_vec, 4),
                        "speedup": round(t_ref / max(t_vec, 1e-9), 2),
                        "identical": same,
                    }
                )

    # headline: NT3 geometry with NA spellings — the sparse-NaN genomics
    # column case the vectorized ladder targets
    shape = FULL_SHAPE if full else SMOKE_SHAPE
    bench = get_benchmark("nt3", **shape)
    spec = bench.spec
    rows = max(8, int(spec.train_samples * shape["sample_scale"]))
    cols = bench.csv_cols if hasattr(bench, "csv_cols") else None
    if cols is None:
        cols = max(2, int(spec.elements_per_sample * shape["scale"])) + 1
    nt3_path = os.path.join(tmp, "nt3_missing.csv")
    _write_cell_csv(nt3_path, rows, cols, "missing", False, rng)
    t_ref, ref = _time_parse(nt3_path, vectorized=False, comment=None)
    t_vec, vec = _time_parse(nt3_path, vectorized=True, comment=None)
    nt3_same = vec.equals(ref)
    identical = identical and nt3_same
    return {
        "matrix": matrix,
        "identical": identical,
        "nt3_rows": rows,
        "nt3_cols": cols,
        "nt3_ref_s": round(t_ref, 4),
        "nt3_vec_s": round(t_vec, 4),
        "nt3_speedup": round(t_ref / max(t_vec, 1e-9), 2),
    }


# ---------------------------------------------------------------------------
# section 3: epoch prefetch
# ---------------------------------------------------------------------------

def _nt3_trainer(tmp: str, train: dict):
    """(benchmark, epoch loader, epochs): NT3 training fed from the
    mmap cache with the epoch's shard-shuffled gather as the load work."""
    bench = get_benchmark("nt3", **train["shape"])
    train_csv, test_csv = bench.write_files(tmp, rng=np.random.default_rng(0))
    cache = LoaderConfig(method="cached", cache_dir=os.path.join(tmp, "pf-cache"))
    # warm the cache; from here on every epoch load is an mmap re-read
    data = load_benchmark_data(bench, train_csv, test_csv, method=cache)
    seed = 11

    def load(epoch: int):
        d = load_benchmark_data(bench, train_csv, test_csv, method=cache)
        order = epoch_shard_order(len(d.x_train), 16, seed, epoch)
        return d.x_train[order], d.y_train[order]

    return bench, data, load, train["epochs"]


def _fit_once(bench, prefetcher, batch_size: int = 20):
    from repro.nn import get_optimizer

    model = bench.build_model(seed=0)
    model.compile(get_optimizer(bench.spec.optimizer), "categorical_crossentropy")
    model.fit(prefetcher, batch_size=batch_size)
    return model


def run_prefetch(tmp: str, full: bool) -> dict:
    train = FULL_TRAIN if full else SMOKE_TRAIN
    bench, data, load, epochs = _nt3_trainer(tmp, train)

    t0 = time.perf_counter()
    model = _fit_once(bench, EpochPrefetcher(load, epochs, depth=2))
    overlapped_s = time.perf_counter() - t0
    stats = model.last_prefetch_stats

    t0 = time.perf_counter()
    sync_model = _fit_once(bench, EpochPrefetcher(load, epochs, synchronous=True))
    sync_s = time.perf_counter() - t0
    sync_stats = sync_model.last_prefetch_stats

    bit_identical = all(
        np.array_equal(a, b)
        for a, b in zip(model.get_weights(), sync_model.get_weights())
    )
    return {
        "epochs": epochs,
        "train_rows": len(data.x_train),
        "load_s": round(stats.load_s, 4),
        "hidden_s": round(stats.hidden_s, 4),
        "wait_s": round(stats.wait_s, 4),
        "hidden_fraction": round(stats.hidden_fraction, 4),
        "overlapped_wall_s": round(overlapped_s, 3),
        "synchronous_wall_s": round(sync_s, 3),
        "synchronous_load_s": round(sync_stats.load_s, 4),
        "bit_identical": bit_identical,
    }


# ---------------------------------------------------------------------------
# section 4: mmap residency
# ---------------------------------------------------------------------------

def run_residency(path: str, cache_dir: str) -> dict:
    """Per-rank resident bytes: full frame per rank vs mmap shard views."""
    # baseline: what every rank holds when each parses the whole file
    baseline = DataSource(path).load(LoaderConfig(method="chunked")).frame
    baseline_bytes = baseline.resident_nbytes()

    view_bytes, rank_bytes, shard_rows = 0, [], 0
    for rank in range(RESIDENCY_RANKS):
        cfg = LoaderConfig(
            method="cached",
            cache_dir=cache_dir,
            shard=ShardSpec(rank, RESIDENCY_RANKS, allgather=False),
        )
        shard = DataSource(path).load(cfg).frame
        view_bytes = max(view_bytes, shard.resident_nbytes())
        shard_rows += len(shard)
        # the rank materializes only its own rows for training
        rank_bytes.append(
            shard.resident_nbytes() + shard.to_numpy(np.float64).nbytes
        )
    ratio = baseline_bytes / max(max(rank_bytes), 1)
    return {
        "ranks": RESIDENCY_RANKS,
        "rows_covered": shard_rows == len(baseline),
        "baseline_resident_bytes": baseline_bytes,
        "max_rank_resident_bytes": max(rank_bytes),
        "shard_view_resident_bytes": view_bytes,
        "residency_ratio": round(ratio, 2),
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def assert_full_criteria(report: dict) -> None:
    assert_modes_criteria(report["modes"])
    parser = report["parser"]
    assert parser["identical"], "parser engines diverged"
    assert parser["nt3_speedup"] >= 1.5, (
        f"vectorized parser only {parser['nt3_speedup']:.2f}x on the "
        f"NA-laden NT3 file"
    )
    prefetch = report["prefetch"]
    assert prefetch["bit_identical"], "prefetched fit diverged from synchronous"
    assert prefetch["hidden_fraction"] >= 0.8, (
        f"prefetch hid only {prefetch['hidden_fraction']:.0%} of epoch load"
    )
    mmap = report["mmap"]
    assert mmap["shard_view_resident_bytes"] == 0, mmap
    assert mmap["residency_ratio"] >= 4.0, (
        f"mmap sharding only cut resident bytes "
        f"{mmap['residency_ratio']:.2f}x at {mmap['ranks']} ranks"
    )


def run_bench(full: bool = False, json_path: str | None = None) -> dict:
    shape = FULL_SHAPE if full else SMOKE_SHAPE
    with tempfile.TemporaryDirectory() as tmp:
        path = generate_nt3_file(tmp, shape)
        size_mb = os.path.getsize(path) / 1e6
        cache_dir = os.path.join(tmp, "cache")
        report = {
            "mode": "full" if full else "smoke",
            "file_mb": round(size_mb, 2),
            "modes": run_modes(path, cache_dir=cache_dir),
            "parser": run_parser_matrix(tmp, full),
            "prefetch": run_prefetch(tmp, full),
            "mmap": run_residency(path, cache_dir=cache_dir),
        }

    print(format_table(
        report["modes"], title=f"ingest modes on {size_mb:.1f} MB NT3-geometry file"
    ))
    print(format_table(report["parser"]["matrix"], title="parser matrix"))
    parser = report["parser"]
    print(
        f"parser headline (NT3 {parser['nt3_rows']}x{parser['nt3_cols']} with "
        f"NAs): {parser['nt3_ref_s']}s ref vs {parser['nt3_vec_s']}s vec = "
        f"{parser['nt3_speedup']}x"
    )
    prefetch = report["prefetch"]
    print(
        f"prefetch ({prefetch['epochs']} epochs): hidden "
        f"{prefetch['hidden_fraction']:.0%} of {prefetch['load_s']}s load, "
        f"wall {prefetch['overlapped_wall_s']}s vs "
        f"{prefetch['synchronous_wall_s']}s sync, "
        f"bit_identical={prefetch['bit_identical']}"
    )
    mmap = report["mmap"]
    print(
        f"mmap residency @ {mmap['ranks']} ranks: "
        f"{mmap['baseline_resident_bytes']} B/rank full vs "
        f"{mmap['max_rank_resident_bytes']} B/rank sharded "
        f"({mmap['residency_ratio']}x, views {mmap['shard_view_resident_bytes']} B)"
    )

    assert all(r["identical"] for r in report["modes"]), report["modes"]
    assert report["parser"]["identical"], "parser engines diverged"
    assert report["prefetch"]["bit_identical"], "prefetched fit diverged"
    assert report["mmap"]["shard_view_resident_bytes"] == 0, report["mmap"]
    assert report["mmap"]["rows_covered"], report["mmap"]
    if full:
        assert size_mb >= 100, f"full mode produced only {size_mb:.1f} MB"
        assert_full_criteria(report)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {json_path}")
    return report


# -- pytest entry points ----------------------------------------------------

def test_smoke_modes_bit_identical(capsys):
    with capsys.disabled():
        print()
        run_bench(full=False)


@pytest.mark.skipif(
    os.environ.get("INGEST_BENCH_FULL") != "1" or (os.cpu_count() or 1) < 2,
    reason="full ingest bench needs INGEST_BENCH_FULL=1 and >1 CPU",
)
def test_full_speedup_criteria(capsys):
    with capsys.disabled():
        print()
        run_bench(full=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true", help="small files, identity checks only")
    group.add_argument("--full", action="store_true", help="paper-scale files + speedup asserts")
    parser.add_argument("--json", metavar="PATH", help="write the report as JSON")
    args = parser.parse_args(argv)
    run_bench(full=args.full, json_path=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
