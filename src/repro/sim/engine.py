"""PhaseSimulator: vectorized per-rank clocks for bulk-synchronous runs.

A CANDLE/Horovod run is bulk-synchronous: ranks do independent work
(load, compute) and meet at collectives. The event calendar of such a
program collapses to one clock per rank plus synchronization maxima, so
the simulator keeps a ``numpy`` clock vector and three accumulators:

- per-rank **energy** (every advance adds ``duration x watts``),
- per-phase **time totals** (by the slowest rank, which gates the run),
- full :class:`~repro.cluster.power.PhasePowerProfile` records and
  :class:`~repro.telemetry.Tracer` spans (in sim time) for a small set
  of *tracked* ranks (storing 3,072 full profiles would be pointless —
  the paper's Fig 7a likewise plots one node's GPUs).

Synchronization is where the paper's broadcast-overhead mechanism
lives: ``synchronize()`` lifts every clock to the max and charges the
wait at idle power, producing exactly the negotiate_broadcast pattern
of Figs 7b/12/19.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.cluster.power import PhasePowerProfile
from repro.telemetry import Tracer

__all__ = ["PhaseSimulator"]

ArrayLike = Union[float, np.ndarray]


def span_category(name: str) -> str:
    """The paper's event family a phase name belongs to.

    ``negotiate_broadcast`` / ``mpi_broadcast`` → ``"broadcast"``,
    ``nccl_allreduce`` → ``"allreduce"``, anything else ``"misc"``.
    """
    return next((f for f in ("broadcast", "allreduce") if name.endswith(f)), "misc")


class PhaseSimulator:
    """Per-rank clock/energy/profile accounting for phase-structured runs.

    The tracked ranks' phases are recorded as spans on ``tracer`` (the
    caller's, or a fresh one with origin 0: sim time starts at 0).
    """

    def __init__(
        self,
        nranks: int,
        track_ranks: Optional[Iterable[int]] = None,
        tracer=None,
    ):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self.clock = np.zeros(nranks)
        self.energy_j = np.zeros(nranks)
        if track_ranks is None:
            track_ranks = {0, nranks // 2, nranks - 1}
        self.tracked = sorted(set(track_ranks))
        for r in self.tracked:
            if not 0 <= r < nranks:
                raise ValueError(f"tracked rank {r} out of range")
        self.profiles = {r: PhasePowerProfile() for r in self.tracked}
        self.tracer = tracer if tracer is not None else Tracer(origin_s=0.0)
        self.phase_seconds: dict[str, float] = {}

    # -- helpers ---------------------------------------------------------
    def _as_vector(self, value: ArrayLike) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            return np.full(self.nranks, float(arr))
        if arr.shape != (self.nranks,):
            raise ValueError(
                f"expected scalar or shape ({self.nranks},), got {arr.shape}"
            )
        return arr

    def _accumulate(self, name: str, start: np.ndarray, duration: np.ndarray, power: np.ndarray) -> None:
        self.energy_j += duration * power
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + float(
            duration.max()
        )
        for r in self.tracked:
            if duration[r] > 0:
                self.profiles[r].add_phase(name, start[r], start[r] + duration[r], power[r])
                self.tracer.record_span(
                    name,
                    float(start[r]),
                    float(duration[r]),
                    category=span_category(name),
                    rank=r,
                    power_w=float(power[r]),
                )

    # -- phase primitives ---------------------------------------------------
    def advance(self, duration: ArrayLike, name: str, power_w: ArrayLike) -> None:
        """Advance each rank by its own duration at the given power."""
        d = self._as_vector(duration)
        if np.any(d < 0):
            raise ValueError(f"negative duration in phase {name!r}")
        p = self._as_vector(power_w)
        start = self.clock.copy()
        self.clock = self.clock + d
        self._accumulate(name, start, d, p)

    def synchronize(self, name: str, idle_power_w: float) -> np.ndarray:
        """Lift every rank to the slowest clock; returns per-rank waits.

        The wait is charged at ``idle_power_w`` — ranks blocked in a
        rendezvous draw near-idle power (paper Fig 7a's flat segment).
        """
        target = float(self.clock.max())
        waits = target - self.clock
        start = self.clock.copy()
        self.clock = np.full(self.nranks, target)
        self._accumulate(name, start, waits, self._as_vector(idle_power_w))
        return waits

    def lockstep(self, duration: float, name: str, power_w: ArrayLike, repeats: int = 1) -> None:
        """Advance all ranks together ``repeats`` times (training loops).

        Recorded as a single merged phase per call to keep profiles and
        timelines compact — the paper's own timelines merge per-step
        activity into visible bands at this zoom level.
        """
        if duration < 0 or repeats < 0:
            raise ValueError("duration and repeats must be non-negative")
        self.advance(duration * repeats, name, power_w)

    # -- results -----------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Run time so far (slowest rank)."""
        return float(self.clock.max())

    def mean_energy_j(self) -> float:
        return float(self.energy_j.mean())

    def phase_report(self) -> dict[str, float]:
        return dict(self.phase_seconds)
