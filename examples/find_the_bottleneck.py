"""Re-enact the paper's diagnosis: profile, find read_csv, fix it.

The paper's §4 methodology in miniature:

1. run an NT3 workload end-to-end with phase spans and cProfile: a
   wide file (30,241 columns) and one rank's training share at 48 GPUs
   (one batch step);
2. observe that the data-loading phase (and `read_csv`'s slow engine,
   whose mixed-dtype chunks raise the `DtypeWarning` pandas users know)
   dominates, exactly as "on 48 GPUs or more, the data-loading time
   dominates the total runtime";
3. apply the §5 fix (chunked low_memory=False) and re-measure.

Run:  python examples/find_the_bottleneck.py
"""

import numpy as np

from repro.analysis import bar_chart, profile_callable
from repro.candle import get_benchmark
from repro.ingest import DataSource, LoaderConfig
from repro.telemetry import Tracer, format_summary, summary_rows


def main() -> None:
    # a wide-row NT3-shaped file: half of NT3's 60,483 columns, 67 rows
    bench = get_benchmark("nt3", scale=0.5, sample_scale=0.06)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        train, test = bench.write_files(tmp, rng=np.random.default_rng(0))

        # ---- step 1: measure the phases with the ORIGINAL loader --------
        source = DataSource(train)
        tracer = Tracer(run_id="phases")
        with tracer.span("data_loading"):
            frame = source.load(LoaderConfig(method="original")).frame
        with tracer.span("training"):
            data = bench.from_frames(frame, frame)
            model = bench.build_model(seed=1)
            model.compile("sgd", "categorical_crossentropy", lr=0.001)
            # one batch step: a rank's share of an NT3 epoch (56 steps)
            # at the paper's 48 GPUs, where each rank still loads it all
            model.fit(data.x_train[:20], data.y_train[:20], batch_size=20, epochs=1)

        print(format_summary(tracer, title="phase seconds (original loader)"))
        seconds = {row["name"]: row["total_s"] for row in summary_rows(tracer)}
        dominant = max(seconds, key=seconds.get)
        print(f"dominant phase: {dominant} "
              f"({seconds[dominant] / sum(seconds.values()) * 100:.0f}% of total)\n")

        # ---- step 2: cProfile points at the parser -----------------------
        _, report = profile_callable(
            lambda: source.load(LoaderConfig(method="original")), top=6
        )
        print("cProfile (top cumulative) — the parser is the hot spot:")
        print("\n".join(report.splitlines()[:14]))
        print()

        # ---- step 3: apply the paper's fix and compare --------------------
        t_orig = source.load(LoaderConfig(method="original")).seconds
        t_opt = source.load(LoaderConfig(method="chunked")).seconds
        print(bar_chart(
            ["original (low_memory=True)", "optimized (chunked)"],
            [t_orig, t_opt],
            title="data-loading seconds, before vs after the fix",
            unit="s",
        ))
        print(f"\nspeedup: {t_orig / t_opt:.1f}x "
              "(paper: ~5.7x for the NT3 training file)")


if __name__ == "__main__":
    main()
