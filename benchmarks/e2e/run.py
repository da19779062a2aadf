"""The repo's end-to-end benchmark: four workloads, named metrics, a
traced pass, and an A/A check of the bounds.

    python benchmarks/e2e/run.py                      # e2e pass, all workloads
    python benchmarks/e2e/run.py --traced             # + per-layer pass, Chrome traces
    python benchmarks/e2e/run.py --aa --runs 10       # two sets of N runs vs the bounds
    python benchmarks/e2e/run.py --smoke --traced     # tiny geometry, < 30 s
    python benchmarks/e2e/run.py --workload io_wide --seed 3 --seconds 20 --trace 0

The last form is what the acceptance driver runs: one workload in this
process, the result as one JSON object on the last line of stdout.
Without ``--workload`` each workload runs in a fresh subprocess of that
same form, so ``peak_rss_mb`` is per workload. Metric names, units and
bounds live in ``BENCHMARK.json`` at the repo root; see README.md here.
"""

from __future__ import annotations

import os

# ranks are threads: an unpinned BLAS would measure the OS scheduler.
# Must happen before NumPy is imported (by the workloads, below).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
SCRATCH_DIR = os.path.join(HERE, ".scratch")


def retain_freed_memory() -> None:
    """Keep freed blocks in the process instead of returning them to the
    kernel (glibc ``mallopt``: no ``mmap`` for large blocks, no heap
    trimming, one arena).

    By default every NumPy temporary above 128 KB is unmapped when freed
    and page-faulted in again when the next one is allocated. On this VM
    the cost of those faults swings with the host (a steady 25% of an
    NT3 ``evaluate`` call, 2 s when 300 MB is touched for the first time
    or after a pause), which put bursts of 25-40% into identical runs.
    With the blocks kept, warmed repeats take no faults at all and
    measure the program. Not glibc: nothing happens."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_max, m_arena_max = -1, -4, -8
    for option, value in ((m_mmap_max, 0), (m_trim_threshold, 2**31 - 1), (m_arena_max, 1)):
        mallopt(option, value)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------

def run_workload(args, spec: dict) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Sizes

    setup, run, setup_repeats = WORKLOADS[args.workload]
    sizes = Sizes(seconds=args.seconds, smoke=args.smoke)
    scratch = args.scratch or tempfile.mkdtemp(prefix="run-", dir=_mkdir(SCRATCH_DIR))
    artifact = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "traced": bool(args.trace), "env": environment(),
    }
    try:
        if args.trace:
            artifact.update(_traced_pass(args, spec, setup, sizes, scratch))
        else:
            artifact.update(_e2e_pass(args, spec, setup, setup_repeats, run, sizes, scratch))
    finally:
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    with open(artifact_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump(artifact, fh, indent=1)
    return artifact


def _mkdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def artifact_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(_mkdir(OUT_DIR),
                        f"{workload}_seed{seed}_{'traced' if trace else 'e2e'}.json")


def _with_units(values: dict, declared: list, fill_missing: bool) -> dict:
    """Attach the declared unit to each value; the runner and
    BENCHMARK.json must agree on the metric set."""
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for metric in declared:
        if metric["name"] not in values and not fill_missing:
            raise SystemExit(f"declared metric not measured: {metric['name']}")
        out[metric["name"]] = {
            "value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"],
        }
    return out


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _e2e_pass(args, spec, setup, setup_repeats, run, sizes, scratch) -> dict:
    from workloads import MEANING

    setup_s = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        inputs = setup(args.seed, sizes, scratch)
        setup_s.append(time.perf_counter() - t0)
    # peak_rss_mb is the program's only while set-up stays below it
    setup_rss_mb = _rss_mb()
    inputs["sizes"] = sizes
    result = run(inputs)
    values = dict(result.metrics)
    values["setup_s"] = statistics.median(setup_s)
    values["peak_rss_mb"] = _rss_mb()
    return {
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": _with_units(values, spec["end_to_end"], fill_missing=False),
        "meaning": MEANING[args.workload], "named": result.named, "checks": result.checks,
        "setup_samples_s": setup_s, "setup_rss_mb": setup_rss_mb, "extra": result.extra,
    }


def _traced_pass(args, spec, setup, sizes, scratch) -> dict:
    from spans import SpanRecorder
    from traced import TRACERS, workload_span_metrics

    inputs = setup(args.seed, sizes, scratch, reuse=True)
    inputs["sizes"] = sizes
    inputs["write_golden"] = args.write_golden
    rec = SpanRecorder(run_id=f"{args.workload}-seed{args.seed}")
    values = TRACERS[args.workload](inputs, rec)
    root, by_layer, span_values = workload_span_metrics(rec)
    values.update(span_values)
    checks = inputs.get("traced_checks", {})
    trace_path = os.path.join(_mkdir(OUT_DIR), f"trace_{args.workload}.json")
    with open(trace_path, "w") as fh:
        json.dump(rec.chrome_trace(), fh)
    return {
        "correct": all(checks.values()), "attempted": len(rec.spans),
        "failed": sum(1 for ok in checks.values() if not ok),
        "metrics": _with_units(values, spec["per_layer"], fill_missing=True),
        "checks": checks, "exercised": sorted(values),
        "trace": os.path.relpath(trace_path, ROOT), "spans": len(rec.spans),
        "workload_wall_s": root.duration,
        "self_time_share": {k: v / root.duration for k, v in sorted(by_layer.items())},
    }


def print_workload(artifact: dict) -> None:
    kind = "per-layer (traced)" if artifact["traced"] else "end-to-end"
    print(f"\n== {artifact['workload']}  seed={artifact['seed']}  {kind} ==")
    exercised = artifact.get("exercised")
    meaning = artifact.get("meaning", {})
    for name, m in artifact["metrics"].items():
        if exercised is None or name in exercised:
            holds = f"   = {meaning[name]}" if name in meaning else ""
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{holds}")
    if exercised is None:
        print(f"  (rss after set-up {artifact['setup_rss_mb']:.1f} MB; set-up x"
              f"{len(artifact['setup_samples_s'])}, median reported)")
    else:
        idle = len(artifact["metrics"]) - len(exercised)
        print(f"  ({idle} per-layer metrics this workload does not exercise read 0)")
        shares = "  ".join(f"{k}={v:.1%}" for k, v in artifact["self_time_share"].items())
        print(f"  self time over {artifact['workload_wall_s']:.2f} s: {shares}")
        print(f"  trace: {artifact['trace']} ({artifact['spans']} spans)")
    for name, value in artifact.get("named", {}).items():
        print(f"  . {name:<32} {_fmt_named(value)}")
    for name, ok in artifact["checks"].items():
        print(f"  check {name:<28} {'ok' if ok else 'FAILED'}")
    print(f"  correct={artifact['correct']} attempted={artifact['attempted']} "
          f"failed={artifact['failed']}")


def _fmt_named(value) -> str:
    if isinstance(value, dict) and "p50" in value:
        hi = value.get("p_hi")
        tail = f" p{hi['q']:g}={hi['value']:.6g}" if hi else \
            f" min={value['min']:.6g} max={value['max']:.6g}"
        return f"p50={value['p50']:.6g}{tail} n={value['n']}"
    if isinstance(value, dict):
        return " ".join(f"{k}={v:.6g}" for k, v in value.items())
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# all workloads, one subprocess each
# ---------------------------------------------------------------------------

def spawn(workload: str, args, seed: int, trace: int, scratch: str, quiet: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--scratch", scratch]
    if args.smoke:
        cmd.append("--smoke")
    if args.write_golden:
        cmd.append("--write-golden")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if not quiet:
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace={trace}) exited {proc.returncode}")
    with open(artifact_path(workload, seed, trace)) as fh:
        return json.load(fh)


def run_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    scratch = tempfile.mkdtemp(prefix="all-", dir=_mkdir(SCRATCH_DIR))
    try:
        if args.aa:
            return run_aa(args, spec, names, scratch)
        runs = []
        for name in names:
            runs.append(spawn(name, args, args.seed, 0, scratch, quiet=False))
            if args.traced:
                runs.append(spawn(name, args, args.seed, 1, scratch, quiet=False))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("\n== summary: end-to-end metric x workload ==")
    e2e_runs = [r for r in runs if not r["traced"]]
    print(f"  {'metric':<20}{'unit':<8}" + "".join(f"{r['workload']:>18}" for r in e2e_runs))
    for metric in spec["end_to_end"]:
        cells = "".join(f"{r['metrics'][metric['name']]['value']:>18.6g}" for r in e2e_runs)
        print(f"  {metric['name']:<20}{metric['unit']:<8}{cells}")
    shares = "".join(f"{r['failed'] / r['attempted']:>18.4g}" for r in e2e_runs)
    print(f"  {'ops_failed_share':<20}{'ratio':<8}{shares}")
    ok = all(r["correct"] for r in runs)
    print(f"\ncorrect: {ok}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"env": environment(), "runs": runs}, fh, indent=1)
    return 0 if ok else 1


def _spread(values: list) -> float:
    """Interquartile range over the median, the acceptance driver's
    statistic (range over the median below four runs)."""
    median = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_aa(args, spec: dict, names: list, scratch: str) -> int:
    """Two sets of ``--runs`` back-to-back e2e passes of the same code,
    every run on another seed, judged by the acceptance driver's rule:
    per metric x workload the spread of each set stays within the bound
    (``setup_s`` excepted: its spread is printed, not judged), and the
    second set's median is not worse than the first's by more than the
    bound (``setup_s`` too)."""
    sets = []
    for s in range(2):
        first = args.seed + s * args.runs
        sets.append({name: [spawn(name, args, first + i, 0, scratch, quiet=True)
                            for i in range(args.runs)] for name in names})
    table, ok = [], True
    for name in names:
        runs = sets[0][name] + sets[1][name]
        failed = [r["failed"] / r["attempted"] for r in runs]
        ok = ok and all(r["correct"] for r in runs) and not any(failed)
        print(f"\n== A/A {name}: 2 x {args.runs} runs, ops_failed_share max {max(failed):g} ==")
        for metric in spec["end_to_end"]:
            values = [[r["metrics"][metric["name"]]["value"] for r in s[name]] for s in sets]
            medians = [statistics.median(v) for v in values]
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            row = {"workload": name, "metric": metric["name"], "unit": metric["unit"],
                   "bound": metric["bound"], "values": values, "medians": medians,
                   "spreads": [_spread(v) for v in values], "second_worse_by": worse,
                   "spread_judged": metric["name"] != "setup_s"}
            row["inside"] = worse <= metric["bound"] and (
                not row["spread_judged"] or max(row["spreads"]) <= metric["bound"])
            ok = ok and row["inside"]
            table.append(row)
            spreads = " ".join(f"{v:6.2%}" for v in row["spreads"])
            print(f"  {metric['name']:<18} medians {medians[0]:<10.5g} {medians[1]:<10.5g} "
                  f"second worse by {worse:+7.2%}  spreads {spreads}"
                  f"{'' if row['spread_judged'] else ' (not judged)'}  "
                  f"bound {metric['bound']:.0%}  {'inside' if row['inside'] else 'OUTSIDE'}")
    print(f"\nA/A: {'every metric x workload inside its bound' if ok else 'OUTSIDE a bound'}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"env": environment(), "runs_per_set": args.runs, "seconds": args.seconds,
                       "first_seed": args.seed, "table": table}, fh, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the traced pass")
    parser.add_argument("--aa", action="store_true", help="A/A check of the bounds")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each of the two --aa sets")
    parser.add_argument("--smoke", action="store_true", help="tiny geometry self-test")
    parser.add_argument("--json", help="all-workloads mode: write the results here")
    parser.add_argument("--scratch", help="dataset directory to use and keep")
    parser.add_argument("--write-golden", action="store_true",
                        help="traced pass: rewrite golden/ loss histories")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    retain_freed_memory()
    artifact = run_workload(args, spec)
    print_workload(artifact)
    print(json.dumps({k: artifact[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
