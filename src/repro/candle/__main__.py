"""CLI: generate CANDLE benchmark data files.

Usage::

    python -m repro.candle nt3 --scale 0.01 --out /tmp/candle_data
    python -m repro.candle all --scale 0.005 --sample-scale 0.2
    python -m repro.candle nt3 --describe

Writes ``<name>_train.csv`` / ``<name>_test.csv`` with the benchmark's
file layout (label-first for classifiers, features-only for the P1B1
autoencoder), at the requested fraction of the Table 1 geometry.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.candle.registry import BENCHMARKS, get_benchmark
from repro.telemetry.report import format_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.candle",
        description="Generate synthetic CANDLE benchmark CSV files.",
    )
    parser.add_argument(
        "benchmark",
        choices=sorted(BENCHMARKS) + ["all"],
        help="which benchmark (one of the P1 suite, or all of it)"
    )
    parser.add_argument("--scale", type=float, default=0.01, help="feature scale (0, 1]")
    parser.add_argument(
        "--sample-scale", type=float, default=None,
        help="sample-count scale (default: same as --scale)",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="data generator seed")
    parser.add_argument(
        "--describe", action="store_true",
        help="print the Table 1 row(s) instead of writing files",
    )
    args = parser.parse_args(argv)

    names = sorted(BENCHMARKS) if args.benchmark == "all" else [args.benchmark]
    benches = [
        get_benchmark(n, scale=args.scale, sample_scale=args.sample_scale)
        for n in names
    ]

    if args.describe:
        print(format_table([b.describe() for b in benches]))
        return 0

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for bench in benches:
        train, test = bench.write_files(args.out, rng=np.random.default_rng(args.seed))
        rows.append(
            {
                "benchmark": bench.spec.name,
                "train": train,
                "train_mb": round(os.path.getsize(train) / 1e6, 2),
                "test_mb": round(os.path.getsize(test) / 1e6, 2),
                "rows": bench.train_samples,
                "cols": bench.features,
            }
        )
    print(format_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
