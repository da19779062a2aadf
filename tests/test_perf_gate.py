"""The CI perf gate must fail loudly — on violations AND on absences."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "perf_gate", REPO / "benchmarks" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_gate)


def write_json(path, doc):
    path.write_text(json.dumps(doc))


def gates_file(tmp_path, rules):
    path = tmp_path / "gates.json"
    write_json(path, {"gates": rules})
    return path


class TestEvaluate:
    def test_bounds_pass_and_fail(self, tmp_path):
        write_json(tmp_path / "B.json", {"speed": 3.0, "nested": {"ok": True}})
        rules = [
            {"file": "B.json", "metric": "speed", "min": 2.0},
            {"file": "B.json", "metric": "speed", "max": 2.5},
            {"file": "B.json", "metric": "nested.ok", "equals": True},
        ]
        verdicts = perf_gate.evaluate(rules, tmp_path)
        assert [v["ok"] for v in verdicts] == [True, False, True]
        assert "ceiling" in verdicts[1]["why"]

    def test_missing_artifact_fails(self, tmp_path):
        rules = [{"file": "nope.json", "metric": "x", "min": 0}]
        (verdict,) = perf_gate.evaluate(rules, tmp_path)
        assert not verdict["ok"]
        assert "missing" in verdict["why"]

    def test_missing_metric_fails(self, tmp_path):
        write_json(tmp_path / "B.json", {"speed": 3.0})
        rules = [{"file": "B.json", "metric": "nested.gone", "min": 0}]
        (verdict,) = perf_gate.evaluate(rules, tmp_path)
        assert not verdict["ok"]
        assert "nested.gone" in verdict["why"]

    def test_equals_is_strict(self, tmp_path):
        write_json(tmp_path / "B.json", {"flag": False})
        rules = [{"file": "B.json", "metric": "flag", "equals": True}]
        (verdict,) = perf_gate.evaluate(rules, tmp_path)
        assert not verdict["ok"]


class TestLoadGates:
    def test_rejects_rule_without_bound(self, tmp_path):
        path = gates_file(tmp_path, [{"file": "B.json", "metric": "x"}])
        with pytest.raises(ValueError, match="min/max/equals"):
            perf_gate.load_gates(path)

    def test_rejects_empty(self, tmp_path):
        path = gates_file(tmp_path, [])
        with pytest.raises(ValueError):
            perf_gate.load_gates(path)

    def test_repo_gates_are_wellformed(self):
        rules = perf_gate.load_gates(REPO / "docs" / "results" / "gates.json")
        # every gated artifact is one CI actually produces
        produced = {"BENCH_ingest.json", "BENCH_trainstep.json",
                    "BENCH_telemetry.json", "BENCH_comms.json",
                    "BENCH_ft_comms.json", "BENCH_serve.json"}
        assert {r["file"] for r in rules} <= produced


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        write_json(tmp_path / "B.json", {"speed": 3.0})
        good = gates_file(tmp_path, [{"file": "B.json", "metric": "speed", "min": 1.0}])
        assert perf_gate.main(["--dir", str(tmp_path), "--gates", str(good)]) == 0
        assert "PASS" in capsys.readouterr().out
        bad = tmp_path / "bad_gates.json"
        write_json(bad, {"gates": [{"file": "B.json", "metric": "speed", "min": 9.0}]})
        assert perf_gate.main(["--dir", str(tmp_path), "--gates", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert perf_gate.main(["--gates", str(tmp_path / "absent.json")]) == 2
