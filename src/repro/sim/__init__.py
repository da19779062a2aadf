"""repro.sim — discrete-event simulation of paper-scale runs.

The functional runtime (:mod:`repro.core.parallel`) *executes* the
benchmarks at laptop scale; this package *times* them at paper scale
(1-3,072 workers on Summit, 1-384 nodes on Theta) by composing
calibrated cost models over the same bulk-synchronous phase structure:

    all ranks: load CSVs (I/O model x per-rank skew)
    → negotiate_broadcast (wait for the slowest loader)
    → broadcast initial weights (tree cost)
    → per epoch, per step: compute (compute model)
                           + negotiate + fused ring allreduce (fabric)
    → evaluate

Because ranks are bulk-synchronous, the event calendar collapses to a
vectorized per-rank clock — :class:`repro.sim.engine.PhaseSimulator`
keeps one clock per rank, advances phases, and emits per-rank power
profiles and Horovod timelines identical in structure to the functional
runtime's.

Calibration (:mod:`repro.sim.calibration`) anchors the free constants
to the paper's published scalars (Tables 2-4 and the quoted epoch
times); everything else — scaling curves, crossovers, improvement
percentages — is *derived* by the mechanism.

Power is read off each phase at the device's fixed clock, as the
paper measured it: a run's joules move with how long it spends in
each phase, never with a frequency setting or a power cap.
"""

from repro.sim.calibration import Calibration, DEFAULT_CALIBRATION, calibration_report
from repro.sim.computemodel import ComputeModel
from repro.sim.engine import PhaseSimulator
from repro.sim.iomodel import (
    FileShape,
    IoModel,
    PREFETCH_EFFICIENCY,
    benchmark_files,
    exposed_load_seconds,
    prefetch_hidden_fraction,
    prefetch_timeline_seconds,
)
from repro.sim.report import SimRunReport, improvement_percent
from repro.sim.runner import ScaledRunSimulator, simulate_run
from repro.sim.servemodel import ServeModel, ServePoint

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "calibration_report",
    "ComputeModel",
    "PhaseSimulator",
    "IoModel",
    "FileShape",
    "benchmark_files",
    "PREFETCH_EFFICIENCY",
    "exposed_load_seconds",
    "prefetch_hidden_fraction",
    "prefetch_timeline_seconds",
    "SimRunReport",
    "improvement_percent",
    "ScaledRunSimulator",
    "simulate_run",
    "ServeModel",
    "ServePoint",
]
