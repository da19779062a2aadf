"""Energy-aware runtime benchmark: savings shape, config search, caps, DVFS.

Four sections, one JSON artifact:

- **savings** — the paper's optimized-loading energy story (Tables 4-6 /
  Fig 14 shape) on simulated Theta: original vs cached loading across
  the strong-scaling rank grid up to the paper's 3,072 nodes, where the
  energy saving crests near the paper's ~78%.
- **search** — the ``energy_search`` experiment: sweep ranks x batch
  rule x collective algorithm x DVFS state, report the Pareto frontier
  and the EDP win of the best swept config over the max-frequency
  reference operating point.
- **cap** — the :class:`~repro.sim.powercap.PowerCapScheduler` on
  simulated Summit: a descending series of node budgets, each run
  checked against its cap (the by-construction invariant) and priced
  against its uncapped twin.
- **dvfs** — the frequency ladder itself on Summit: pinned-state runs
  at every rung, bit-identity of the explicit top state against the
  unpinned default, and the EDP of the best rung vs nominal clocks
  (V100's wide dynamic range makes down-clocking genuinely win).

The simulator is deterministic, so smoke and full differ only in grid
size, and every number in the artifact is exactly reproducible.

Run standalone::

    python benchmarks/bench_energy.py --smoke                  # CI-sized
    python benchmarks/bench_energy.py --full                   # asserts
    python benchmarks/bench_energy.py --smoke --json OUT.json  # artifact

``--full`` additionally asserts the acceptance thresholds: the max
energy saving lands in the paper's band (70-85%), the swept best config
beats the max-frequency reference EDP by >= 15%, every capped run stays
under its budget, the explicit top state is bit-identical to the
default, and the best DVFS rung improves Summit EDP. Under pytest the
smoke path runs as a test; the full path is opt-in via
``ENERGY_BENCH_FULL=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import pytest

from repro.candle import get_benchmark
from repro.cluster.machine import get_machine
from repro.experiments.base import run_experiment
from repro.experiments.common import plan_for
from repro.sim.powercap import PowerCapScheduler
from repro.sim.runner import ScaledRunSimulator
from repro.telemetry.report import format_table

#: strong-scaling Theta grids for the savings section; both reach the
#: paper's full 3,072-node scale where the Lustre story peaks
SMOKE_SAVINGS_COUNTS = (384, 1536, 3072)
FULL_SAVINGS_COUNTS = (96, 192, 384, 768, 1536, 3072)

#: Summit node budgets for the cap section (nominal peak ~1,740 W/node)
SMOKE_CAPS_W = (1800.0, 1000.0)
FULL_CAPS_W = (1800.0, 1400.0, 1000.0, 700.0)

#: Summit strong-scaling point for the cap and dvfs sections
CAP_WORKERS = 96


# ---------------------------------------------------------------------------
# section 1: paper energy-saving shape
# ---------------------------------------------------------------------------

def run_savings(full: bool) -> dict:
    """Original vs cached loading on Theta across the rank grid."""
    from repro.analysis.energy import compare_runs

    counts = FULL_SAVINGS_COUNTS if full else SMOKE_SAVINGS_COUNTS
    spec = get_benchmark("nt3").spec
    sim = ScaledRunSimulator("theta")
    rows = []
    for n in counts:
        plan = plan_for(spec, n, mode="strong")
        orig = sim.run(spec, plan, method="original", seed=0, keep_profiles=False)
        opt = sim.run(spec, plan, method="cached", seed=0, keep_profiles=False)
        rows.append(compare_runs(orig, opt).as_row())
    return {
        "rows": rows,
        "max_energy_saving_pct": max(r["energy_saving_pct"] for r in rows),
        "paper_pct": 78.0,
    }


# ---------------------------------------------------------------------------
# section 2: energy-optimal config search
# ---------------------------------------------------------------------------

def run_search(full: bool) -> dict:
    """The registered ``energy_search`` experiment, smoke = fast grid."""
    result = run_experiment("energy_search", fast=not full)
    frontier_key = next(k for k in result.panels if k.startswith("pareto"))
    return {
        "edp_improvement_pct": result.measured["EDP improvement vs max-frequency %"],
        "max_energy_saving_pct": result.measured[
            "max energy saving % (paper ~78 at scale)"
        ],
        "frontier": result.panels[frontier_key],
        "frontier_size": len(result.panels[frontier_key]),
        "edp_rows": result.panels["EDP vs max-frequency reference"],
        "notes": result.notes,
    }


# ---------------------------------------------------------------------------
# section 3: power capping
# ---------------------------------------------------------------------------

def run_caps(full: bool) -> dict:
    """Descending Summit node budgets through the cap scheduler."""
    caps = FULL_CAPS_W if full else SMOKE_CAPS_W
    spec = get_benchmark("nt3").spec
    plan = plan_for(spec, CAP_WORKERS, mode="strong")
    scheduler = PowerCapScheduler("summit")
    rows = [
        scheduler.run(spec, plan, cap, method="cached", seed=0).as_row()
        for cap in caps
    ]
    return {
        "rows": rows,
        "all_within_cap": all(r["within_cap"] for r in rows),
        "max_slowdown": max(r["slowdown"] for r in rows),
        "max_energy_saving_pct": max(r["energy_saving_pct"] for r in rows),
    }


# ---------------------------------------------------------------------------
# section 4: DVFS ladder
# ---------------------------------------------------------------------------

def run_dvfs(full: bool) -> dict:
    """Every Summit rung at the cap operating point, plus bit identity."""
    spec = get_benchmark("nt3").spec
    plan = plan_for(spec, CAP_WORKERS, mode="strong")
    machine = get_machine("summit")

    default = ScaledRunSimulator(machine).run(
        spec, plan, method="cached", seed=0, keep_profiles=False
    )
    rows = []
    for state in machine.frequency_ladder():
        rep = ScaledRunSimulator(machine, power_state=state).run(
            spec, plan, method="cached", seed=0, keep_profiles=False
        )
        rows.append(
            {
                "state": state.name,
                "freq_ghz": state.frequency_ghz,
                "total_s": round(rep.total_s, 2),
                "energy_mj": round(rep.total_energy_j / 1e6, 3),
                "avg_power_w": round(rep.avg_power_w, 1),
                "edp_gj_s": round(rep.edp_j_s / 1e9, 4),
            }
        )
    top = next(r for r in rows if r["state"] == machine.frequency_ladder().max_state.name)
    nominal_edp = default.edp_j_s / 1e9
    best = min(rows, key=lambda r: r["edp_gj_s"])
    return {
        "rows": rows,
        "bit_identical_max_state": (
            abs(top["total_s"] - round(default.total_s, 2)) == 0.0
            and abs(top["energy_mj"] - round(default.total_energy_j / 1e6, 3)) == 0.0
        ),
        "best_state": best["state"],
        "edp_improvement_pct": round(
            (1.0 - best["edp_gj_s"] / nominal_edp) * 100.0, 2
        ),
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def assert_full_criteria(report: dict) -> None:
    savings = report["savings"]["max_energy_saving_pct"]
    assert 70.0 <= savings <= 85.0, (
        f"max energy saving {savings:.1f}% outside the paper's 70-85% band"
    )
    edp = report["search"]["edp_improvement_pct"]
    assert edp >= 15.0, (
        f"best swept config beats max-frequency EDP by only {edp:.1f}%"
    )
    assert report["cap"]["all_within_cap"], report["cap"]["rows"]
    assert report["dvfs"]["bit_identical_max_state"], report["dvfs"]
    assert report["dvfs"]["edp_improvement_pct"] > 0.0, (
        "no Summit DVFS rung beats nominal EDP"
    )


def run_bench(full: bool = False, json_path: str | None = None) -> dict:
    report = {
        "mode": "full" if full else "smoke",
        "savings": run_savings(full),
        "search": run_search(full),
        "cap": run_caps(full),
        "dvfs": run_dvfs(full),
    }

    print(format_table(
        report["savings"]["rows"],
        title="savings: NT3 on Theta, original vs cached loading",
    ))
    print(
        f"savings headline: {report['savings']['max_energy_saving_pct']:.2f}% "
        f"max (paper ~{report['savings']['paper_pct']:.0f}%)"
    )
    print(format_table(
        report["search"]["edp_rows"], title="search: EDP vs max-frequency reference"
    ))
    print(
        f"search headline: best swept config beats reference EDP by "
        f"{report['search']['edp_improvement_pct']:.1f}% "
        f"(frontier has {report['search']['frontier_size']} points)"
    )
    print(format_table(report["cap"]["rows"], title="cap: Summit node budgets"))
    print(format_table(report["dvfs"]["rows"], title="dvfs: Summit ladder"))
    print(
        f"dvfs headline: {report['dvfs']['best_state']} beats nominal EDP by "
        f"{report['dvfs']['edp_improvement_pct']:.1f}%, "
        f"bit_identical_max_state={report['dvfs']['bit_identical_max_state']}"
    )

    assert report["cap"]["all_within_cap"], report["cap"]["rows"]
    assert report["dvfs"]["bit_identical_max_state"], report["dvfs"]
    if full:
        assert_full_criteria(report)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {json_path}")
    return report


# -- pytest entry points ----------------------------------------------------

def test_smoke_energy_invariants(capsys):
    with capsys.disabled():
        print()
        run_bench(full=False)


@pytest.mark.skipif(
    os.environ.get("ENERGY_BENCH_FULL") != "1",
    reason="full energy bench needs ENERGY_BENCH_FULL=1",
)
def test_full_energy_criteria(capsys):
    with capsys.disabled():
        print()
        run_bench(full=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true", help="CI-sized grids, invariant checks only")
    group.add_argument("--full", action="store_true", help="paper-scale grids + acceptance asserts")
    parser.add_argument("--json", metavar="PATH", help="write the report as JSON")
    args = parser.parse_args(argv)
    run_bench(full=args.full, json_path=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
