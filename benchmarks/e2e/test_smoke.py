"""Self-test of the end-to-end benchmark on tiny geometry.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; it is not
part of tier-1 (``testpaths = ["tests"]``). Checks that what
``BENCHMARK.json`` declares and what the runner prints agree.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """One ``--smoke --traced`` run of all four workloads."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--traced", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as fh:
        return {"stdout": proc.stdout, "runs": json.load(fh)["runs"]}


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_workload_sets_agree(spec):
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        from traced import TRACERS
        from workloads import WORKLOADS
    finally:
        del sys.path[:2]
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == list(WORKLOADS) == list(TRACERS)


def test_every_declared_metric_is_printed_with_its_unit(spec, smoke):
    declared = {"e2e": spec["end_to_end"], "traced": spec["per_layer"]}
    exercised = set()
    for run in smoke["runs"]:
        assert run["correct"] and run["failed"] == 0, run["checks"]
        wanted = declared["traced" if run["traced"] else "e2e"]
        assert {n: m["unit"] for n, m in run["metrics"].items()} == \
            {m["name"]: m["unit"] for m in wanted}
        if run["traced"]:
            exercised |= set(run["exercised"])
        else:  # "choose metrics that are never 0"
            assert all(m["value"] > 0 for m in run["metrics"].values())
    # every per-layer metric is exercised by at least one workload
    assert exercised == {m["name"] for m in spec["per_layer"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        line = re.compile(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}(\s+= .*)?$", re.M)
        assert line.search(smoke["stdout"]), metric["name"]
    assert {r["workload"] for r in smoke["runs"]} == {w["name"] for w in spec["workloads"]}


def test_traced_pass_writes_chrome_traces(spec, smoke):
    for run in (r for r in smoke["runs"] if r["traced"]):
        with open(os.path.join(ROOT, run["trace"])) as fh:
            trace = json.load(fh)
        events = trace["traceEvents"]
        assert len(events) == run["spans"]
        assert {e["args"]["run_id"] for e in events} == {trace["run_id"]}
        ids = {e["args"]["id"] for e in events}
        assert all(e["args"]["parent"] in ids | {None} for e in events)
        assert abs(sum(run["self_time_share"].values()) - 1.0) < 1e-6


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_prints_one_json_object_last(spec, trace):
    proc = subprocess.run(
        spec["command"] + ["--workload", "serve_p1b2_open", "--seed", "1",
                           "--seconds", "20", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
