"""Experiment result container, typed run configuration, and registry.

Experiments are invoked by id through :func:`run_experiment`. The knobs
every experiment understands — ``fast``, ``seed``, ``machine``,
``nworkers``, ``method``, ``collective`` — live on one typed
:class:`ExperimentConfig`; experiment-specific parameters ride in its
``extra`` mapping. Experiment modules that accept ``config=`` get the
object directly; older modules keep their flat keyword signatures and
the dispatcher splats the config back into them, so both calling styles
(``run_experiment("fig7", config=cfg)`` and the historical
``run_experiment("fig7", fast=True, nworkers=384)``) reach every
experiment.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.telemetry.report import format_table

__all__ = [
    "ExperimentResult",
    "ExperimentConfig",
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed configuration shared by every experiment.

    ``None`` means "use the experiment's own default" for that knob —
    the dispatcher only forwards explicitly-set values, so experiments
    keep their per-figure defaults (e.g. fig7's 384 workers).
    """

    fast: bool = True
    seed: Optional[int] = None
    machine: Optional[str] = None
    nworkers: Optional[int] = None
    method: Optional[str] = None
    #: a :class:`repro.comms.CollectiveOptions` for runs that reduce
    collective: Optional[Any] = None
    #: a DVFS power-state name (e.g. "p2") on the machine's frequency
    #: ladder, for experiments that pin or sweep the device clock
    frequency: Optional[str] = None
    #: experiment-specific keywords, forwarded verbatim
    extra: Mapping[str, Any] = field(default_factory=dict)

    _KNOWN = (
        "fast",
        "seed",
        "machine",
        "nworkers",
        "method",
        "collective",
        "frequency",
    )

    @classmethod
    def from_kwargs(cls, fast: bool = True, **kwargs) -> "ExperimentConfig":
        """Build a config from a flat keyword dict (the legacy style)."""
        known = {k: kwargs.pop(k) for k in cls._KNOWN[1:] if k in kwargs}
        return cls(fast=fast, extra=dict(kwargs), **known)

    def legacy_kwargs(self) -> Dict[str, Any]:
        """The flat keyword form: set knobs + extras, ``fast`` excluded."""
        out = {
            name: getattr(self, name)
            for name in self._KNOWN[1:]
            if getattr(self, name) is not None
        }
        out.update(self.extra)
        return out

    def evolve(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return ExperimentConfig(**current)


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
    "checkpoint_interval": "repro.experiments.checkpoint_interval",
    "ingest": "repro.experiments.ingest_sweep",
    "energy_search": "repro.experiments.energy_search",
}


def list_experiments() -> List[str]:
    """All experiment ids, paper order."""
    return list(_REGISTRY)


def run_experiment(
    experiment_id: str,
    fast: bool = True,
    *,
    config: Optional[ExperimentConfig] = None,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment by id (e.g. 'fig6', 'table3').

    Pass either a typed ``config=`` or the historical flat keywords
    (``nworkers=384, method="sharded"``); flat keywords are folded into
    an :class:`ExperimentConfig` and both styles dispatch identically.
    Experiments whose ``run`` accepts ``config`` receive the object;
    the rest receive the equivalent flat keywords.
    """
    try:
        module_name = _REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {list(_REGISTRY)}"
        ) from None
    if config is not None and kwargs:
        raise TypeError(
            "pass either config= or flat keyword arguments, not both"
        )
    if config is None:
        config = ExperimentConfig.from_kwargs(fast=fast, **kwargs)
    if ":" in module_name:
        module_name, fn_name = module_name.split(":", 1)
    else:
        fn_name = "run"
    module = importlib.import_module(module_name)
    fn = getattr(module, fn_name)
    if "config" in inspect.signature(fn).parameters:
        return fn(config=config)
    return fn(fast=config.fast, **config.legacy_kwargs())
