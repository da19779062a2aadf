"""Experiment result container and registry.

Experiments are invoked by id through :func:`run_experiment`, which
passes ``fast`` and any further keywords straight to the experiment's
``run``: ``run_experiment("fig12", fast=True, nworkers=96)``. Each
experiment declares the keywords it takes in its own signature.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.telemetry.report import format_table

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "list_experiments",
]


@dataclass
class ExperimentResult:
    """One regenerated table/figure.

    ``panels`` maps a panel label (e.g. "a: performance", "b: accuracy")
    to its rows; single-panel experiments use the label "".
    """

    experiment_id: str
    title: str
    panels: Dict[str, List[dict]]
    paper_claims: Dict[str, float] = field(default_factory=dict)
    measured: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def rows(self, panel: str = "") -> List[dict]:
        try:
            return self.panels[panel]
        except KeyError:
            raise KeyError(
                f"no panel {panel!r}; panels: {sorted(self.panels)}"
            ) from None

    def render(self) -> str:
        """Human-readable text of the whole experiment."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for label, rows in self.panels.items():
            parts.append(format_table(rows, title=f"[{label}]" if label else ""))
        if self.paper_claims:
            claim_rows = [
                {
                    "metric": key,
                    "paper": self.paper_claims[key],
                    "measured": round(self.measured.get(key, float("nan")), 2),
                }
                for key in self.paper_claims
            ]
            parts.append(format_table(claim_rows, title="[paper vs measured]"))
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n\n".join(parts)


_REGISTRY: Dict[str, str] = {
    "table1": "repro.experiments.table1",
    "fig6": "repro.experiments.fig06",
    "table2": "repro.experiments.table2",
    "fig7": "repro.experiments.fig07",
    "fig8": "repro.experiments.fig08",
    "fig9": "repro.experiments.fig09",
    "fig10": "repro.experiments.fig10",
    "table3": "repro.experiments.table3",
    "table4": "repro.experiments.table4",
    "fig11": "repro.experiments.fig11",
    "table5": "repro.experiments.table5",
    "fig12": "repro.experiments.fig12",
    "fig13": "repro.experiments.fig13",
    "fig14": "repro.experiments.fig14",
    "fig15": "repro.experiments.fig15",
    "fig16": "repro.experiments.fig16",
    "fig17": "repro.experiments.fig17",
    "p1b3_opt": "repro.experiments.p1b3_opt",
    "fig18": "repro.experiments.fig18",
    "fig19": "repro.experiments.fig19",
    "table6": "repro.experiments.table6",
    "fig20": "repro.experiments.fig20",
    "fig21": "repro.experiments.fig21",
    "calibration": "repro.experiments.calibration_exp",
    "ablation_fusion": "repro.experiments.ablations:run_fusion",
    "ablation_collectives": "repro.experiments.ablations:run_collectives",
    "ablation_lr": "repro.experiments.ablations:run_lr_scaling",
    "ablation_nccl": "repro.experiments.ablations:run_nccl_upgrade",
    "ablation_overlap": "repro.experiments.ablations:run_overlap",
    "efficiency": "repro.experiments.efficiency",
    "ingest": "repro.experiments.ingest_sweep",
}


def list_experiments() -> List[str]:
    """All experiment ids, paper order."""
    return list(_REGISTRY)


def run_experiment(
    experiment_id: str, fast: bool = True, **kwargs
) -> ExperimentResult:
    """Run one experiment by id (e.g. 'fig6', 'table3').

    ``fast`` and every keyword (``nworkers=384``, ``collective=opts``)
    go to the experiment's ``run`` as they are; a keyword it does not
    declare raises ``TypeError`` there.
    """
    try:
        module_name = _REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {list(_REGISTRY)}"
        ) from None
    module_name, _, fn_name = module_name.partition(":")
    fn = getattr(importlib.import_module(module_name), fn_name or "run")
    return fn(fast=fast, **kwargs)
