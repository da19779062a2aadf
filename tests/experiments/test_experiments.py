"""Experiment harness: registry and the simulation-only experiments.

Functional-training experiments (fig6/8/9/10, table6 accuracy) are
covered by the integration suite; here we run every *cheap* experiment
end-to-end and validate its structure and claims.
"""

import pytest

from repro.experiments import ExperimentResult, list_experiments, run_experiment

SIM_ONLY = [
    "table1",
    "table3",
    "table4",
    "calibration",
    "fig11",
    "table5",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "p1b3_opt",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
]


def test_registry_covers_every_table_and_figure():
    ids = list_experiments()
    for required in (
        "table1", "fig6", "table2", "fig7", "fig8", "fig9", "fig10",
        "table3", "table4", "fig11", "table5", "fig12", "fig13", "fig14",
        "fig15", "fig16", "fig17", "p1b3_opt", "fig18", "fig19", "table6",
        "fig20", "fig21",
    ):
        assert required in ids


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


@pytest.fixture(scope="module")
def results():
    return {eid: run_experiment(eid, fast=True) for eid in SIM_ONLY}


def test_all_sim_experiments_return_results(results):
    for eid, r in results.items():
        assert isinstance(r, ExperimentResult)
        assert r.experiment_id == eid
        assert r.panels
        for rows in r.panels.values():
            assert rows, f"{eid} produced an empty panel"


def test_render_produces_text(results):
    for r in results.values():
        text = r.render()
        assert r.experiment_id in text
        assert "paper" in text or r.panels


def test_every_claim_has_a_measurement(results):
    for eid, r in results.items():
        for key in r.paper_claims:
            assert key in r.measured, f"{eid}: claim {key!r} unmeasured"


def test_result_rows_accessor(results):
    r = results["table1"]
    assert r.rows("")[0]["benchmark"] == "NT3"
    with pytest.raises(KeyError):
        r.rows("nonexistent panel")


# -- headline claims the reproduction must preserve -------------------------

def _measured(results, eid, key):
    return results[eid].measured[key]


def test_table3_wide_speedups_and_p1b3_parity(results):
    for bench, lo, hi in (("NT3", 4, 8), ("P1B1", 6, 12), ("P1B2", 3, 6)):
        assert lo < _measured(results, "table3", f"{bench} speedup") < hi
    assert 0.8 < _measured(results, "table3", "P1B3 speedup") < 1.3


def test_summit_strong_scaling_improvement_bands(results):
    assert 60 < _measured(results, "fig11", "max perf improvement %") < 80
    assert 70 < _measured(results, "fig14", "max perf improvement %") < 85
    assert 50 < _measured(results, "fig16", "max perf improvement %") < 72


def test_theta_strong_scaling_improvement_bands(results):
    assert 30 < _measured(results, "fig13", "max perf improvement %") < 50
    assert 35 < _measured(results, "fig15", "max perf improvement %") < 55
    assert 38 < _measured(results, "fig17", "max perf improvement %") < 58


def test_weak_scaling_bands(results):
    assert 30 < _measured(results, "fig18", "min perf improvement %") < 50
    assert 60 < _measured(results, "fig20", "min perf improvement %") < 80
    assert 35 < _measured(results, "fig21", "min perf improvement %") < 60


def test_broadcast_overhead_reduction(results):
    assert _measured(results, "fig12", "overhead improvement %") > 70
    assert _measured(results, "fig19", "overhead improvement %") > 70


def test_power_increases_energy_falls(results):
    assert _measured(results, "table5", "max power increase %") > 40
    assert _measured(results, "table5", "max energy saving %") > 40


def test_p1b3_gains_little(results):
    assert _measured(results, "p1b3_opt", "improvement small (< 7%)") == 1.0


def test_calibration_all_ok(results):
    rows = results["calibration"].panels[""]
    assert all(r["ok"] for r in rows)


ABLATIONS = ["ablation_fusion", "ablation_collectives", "ablation_nccl"]


@pytest.mark.parametrize("eid", ABLATIONS)
def test_ablation_claims_hold(eid):
    r = run_experiment(eid, fast=True)
    for key, want in r.paper_claims.items():
        assert r.measured[key] == want, (eid, key, r.measured[key])


def test_ablation_lr_runs_real_training():
    r = run_experiment("ablation_lr", fast=True)
    rows = r.panels[""]
    assert {row["strategy"] for row in rows} == {"none", "sqrt", "linear"}
    assert all(0 <= row["train_accuracy"] <= 1 for row in rows)
