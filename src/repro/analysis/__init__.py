"""repro.analysis — profiling, energy accounting, timeline analysis.

The measurement toolkit the paper's evaluation uses:

- :mod:`repro.analysis.profiling` — a cProfile wrapper (the paper
  profiles with Python's cProfile, §4); phases are telemetry spans.
- :mod:`repro.analysis.timeline_analysis` — extracts broadcast/allreduce
  overheads from Horovod timelines (Figs 7b, 12, 19).
- :mod:`repro.analysis.energy` — power-trace statistics and
  original-vs-optimized improvement accounting (Tables 5-6, Figs 11-21).
"""

from repro.analysis.energy import EnergyComparison, compare_runs
from repro.analysis.profiling import profile_callable
from repro.analysis.timeline_analysis import (
    broadcast_overhead_seconds,
    communication_summary,
)

__all__ = [
    "profile_callable",
    "broadcast_overhead_seconds",
    "communication_summary",
    "EnergyComparison",
    "compare_runs",
]
