"""CI performance gate: compare BENCH_*.json artifacts against bounds.

``docs/results/gates.json`` declares the floor/ceiling every benchmark
artifact must respect::

    {
      "gates": [
        {"file": "BENCH_serve.json",
         "metric": "batching.batched_p99_ms", "max": 300.0},
        {"file": "BENCH_comms.json",
         "metric": "allreduce.speedup_hierarchical_fused_vs_flat",
         "min": 2.0},
        {"file": "BENCH_comms.json",
         "metric": "bit_identical.ring", "equals": true}
      ]
    }

``metric`` is a dotted path into the artifact's JSON; each rule carries
one or more of ``min`` / ``max`` / ``equals``. The gate fails loudly —
missing artifact, missing metric, or out-of-bounds value all exit
non-zero with a per-rule verdict table, so a regression can't slip
through as a silently-skipped check.

Run from the directory holding the artifacts (CI runs it after the
smoke benches)::

    python benchmarks/perf_gate.py
    python benchmarks/perf_gate.py --dir artifacts/ --gates docs/results/gates.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["evaluate", "load_gates", "main"]


def load_gates(path: Path) -> list[dict]:
    """Parse the gate rules; malformed rules are a loud failure too."""
    with open(path) as fh:
        doc = json.load(fh)
    rules = doc.get("gates")
    if not isinstance(rules, list) or not rules:
        raise ValueError(f"{path}: expected a non-empty 'gates' list")
    for rule in rules:
        if "file" not in rule or "metric" not in rule:
            raise ValueError(f"{path}: rule missing file/metric: {rule}")
        if not any(k in rule for k in ("min", "max", "equals")):
            raise ValueError(
                f"{path}: rule has no min/max/equals bound: {rule}"
            )
    return rules


def _dig(doc, dotted: str):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def evaluate(rules: list[dict], bench_dir: Path) -> list[dict]:
    """One verdict per rule: {rule, value, ok, why}."""
    verdicts = []
    cache: dict[str, dict] = {}
    for rule in rules:
        name = rule["file"]
        verdict = {"rule": rule, "value": None, "ok": False, "why": ""}
        try:
            if name not in cache:
                artifact = bench_dir / name
                if not artifact.is_file():
                    raise FileNotFoundError(
                        f"artifact {artifact} missing — did its bench run?"
                    )
                with open(artifact) as fh:
                    cache[name] = json.load(fh)
            try:
                value = _dig(cache[name], rule["metric"])
            except KeyError:
                raise KeyError(
                    f"{name} has no metric {rule['metric']!r}"
                ) from None
            verdict["value"] = value
            problems = []
            if "equals" in rule and value != rule["equals"]:
                problems.append(f"expected {rule['equals']!r}, got {value!r}")
            if "min" in rule and not value >= rule["min"]:
                problems.append(f"{value} < floor {rule['min']}")
            if "max" in rule and not value <= rule["max"]:
                problems.append(f"{value} > ceiling {rule['max']}")
            verdict["ok"] = not problems
            verdict["why"] = "; ".join(problems) or "ok"
        except (FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
            verdict["why"] = str(exc)
        verdicts.append(verdict)
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json artifacts"
    )
    parser.add_argument(
        "--gates",
        default=str(Path(__file__).resolve().parent.parent
                    / "docs" / "results" / "gates.json"),
        help="gate rules file",
    )
    ns = parser.parse_args(argv)
    try:
        rules = load_gates(Path(ns.gates))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"perf gate: cannot load rules: {exc}", file=sys.stderr)
        return 2
    verdicts = evaluate(rules, Path(ns.dir))
    width = max(len(v["rule"]["file"]) + len(v["rule"]["metric"]) for v in verdicts)
    failed = 0
    for v in verdicts:
        rule = v["rule"]
        bounds = ", ".join(
            f"{k}={rule[k]}" for k in ("min", "max", "equals") if k in rule
        )
        label = f"{rule['file']}:{rule['metric']}"
        mark = "PASS" if v["ok"] else "FAIL"
        failed += not v["ok"]
        print(f"{mark}  {label:<{width + 1}}  value={v['value']}  [{bounds}]"
              + ("" if v["ok"] else f"  <- {v['why']}"))
    if failed:
        print(f"perf gate: {failed}/{len(verdicts)} rule(s) failed",
              file=sys.stderr)
        return 1
    print(f"perf gate: all {len(verdicts)} rule(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
