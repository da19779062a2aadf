"""Power sampling and energy accounting.

The paper measures GPU power with ``nvidia-smi`` at 1 sample/s on
Summit and node power with PoLiMEr/CapMC at ~2 samples/s on Theta, then
reports average power (Tables 2, 5a, 6) and energy (Tables 5b, Figs
13-21). We model a device's run as a :class:`PhasePowerProfile` — a
piecewise-constant wattage over phases (idle/load/broadcast/train/
allreduce) — sampled by a :class:`PowerMeter` at the matching rate, and
integrate energy with the trapezoid rule over the samples, exactly as
one would post-process real meter output.

The paper's headline energy effect falls out of this arithmetic: data
loading is a *low-power* phase, so shortening it raises *average* power
(Table 5a: +68.77%) while cutting *energy* (Table 5b: −55.93%).
Like the paper, every device runs at its fixed clock: power follows
what a phase does, never a frequency or a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "PhasePowerProfile",
    "PowerSample",
    "PowerMeter",
    "trapezoid_energy",
]


def _resolve_trapezoid(module=np):
    """The trapezoid integrator for this NumPy.

    ``np.trapezoid`` arrived in NumPy 2.0 (``np.trapz`` is deprecated
    there but removed nowhere); on 1.x only ``np.trapz`` exists. Kept
    as a function of the module so the selection is testable without
    pinning a NumPy version.
    """
    fn = getattr(module, "trapezoid", None)
    return fn if fn is not None else module.trapz


_trapezoid = _resolve_trapezoid()


@dataclass(frozen=True)
class PowerSample:
    """One meter reading."""

    time_s: float
    power_w: float


class PhasePowerProfile:
    """Piecewise-constant power over labelled, contiguous phases."""

    def __init__(self):
        self._phases: list[tuple[str, float, float, float]] = []  # name, t0, t1, W
        self._lookup: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def add_phase(self, name: str, start_s: float, end_s: float, power_w: float) -> None:
        """Append a phase; phases may not overlap or run backwards."""
        if end_s < start_s:
            raise ValueError(f"phase {name!r} ends before it starts")
        if power_w < 0:
            raise ValueError(f"phase {name!r} has negative power")
        if self._phases and start_s < self._phases[-1][2] - 1e-9:
            raise ValueError(
                f"phase {name!r} starts at {start_s} before previous phase "
                f"ends at {self._phases[-1][2]}"
            )
        self._phases.append((name, start_s, end_s, power_w))
        self._lookup = None

    @property
    def phases(self) -> list[tuple[str, float, float, float]]:
        return list(self._phases)

    def duration_s(self) -> float:
        if not self._phases:
            return 0.0
        return self._phases[-1][2] - self._phases[0][1]

    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached (starts, ends, watts) arrays for binary-search lookup."""
        if self._lookup is None:
            self._lookup = (
                np.array([t0 for _, t0, _, _ in self._phases]),
                np.array([t1 for _, _, t1, _ in self._phases]),
                np.array([w for _, _, _, w in self._phases]),
            )
        return self._lookup

    def power_at_many(self, times) -> np.ndarray:
        """Vectorized :meth:`power_at` over an array of times.

        A ``searchsorted`` lookup over precomputed phase edges —
        O((samples + phases)·log phases) where the per-tick linear scan
        was O(samples × phases), which made metering a multi-hour
        profile with per-step phases quadratic. Bit-identical to the scan, including its gap and
        endpoint semantics: 0 in inter-phase gaps and outside the
        profile, and the final phase's wattage at exactly its end time.
        """
        times = np.asarray(times, dtype=np.float64)
        if not self._phases:
            return np.zeros(times.shape)
        starts, ends, watts = self._edges()
        idx = np.searchsorted(starts, times, side="right") - 1
        inside = idx >= 0
        safe = np.where(inside, idx, 0)
        out = np.where(inside & (times < ends[safe]), watts[safe], 0.0)
        return np.where(times == ends[-1], watts[-1], out)

    def power_at(self, t: float) -> float:
        """Instantaneous draw at time ``t`` (0 outside any phase)."""
        return float(self.power_at_many(np.array(t, dtype=np.float64)))

    def exact_energy_j(self) -> float:
        """Closed-form energy (sum of W x dt per phase)."""
        return float(sum((t1 - t0) * w for _, t0, t1, w in self._phases))

    def exact_average_power_w(self) -> float:
        """Energy / duration (0 if empty)."""
        d = self.duration_s()
        return self.exact_energy_j() / d if d > 0 else 0.0

    def phase_energy_j(self) -> dict[str, float]:
        """Energy by phase name (summed over repeats)."""
        out: dict[str, float] = {}
        for name, t0, t1, w in self._phases:
            out[name] = out.get(name, 0.0) + (t1 - t0) * w
        return out

    def energy_between(self, start_s: float, end_s: float) -> float:
        """Closed-form energy over the window ``[start_s, end_s]``.

        The exact interval query behind per-span energy attribution:
        each phase contributes its overlap with the window times its
        wattage. Windows partitioning the profile sum exactly to
        :meth:`exact_energy_j`.
        """
        if end_s < start_s:
            raise ValueError(f"window ends at {end_s} before it starts at {start_s}")
        total = 0.0
        for _, t0, t1, w in self._phases:
            overlap = min(t1, end_s) - max(t0, start_s)
            if overlap > 0:
                total += overlap * w
        return total


class PowerMeter:
    """Samples a profile at a fixed rate (nvidia-smi / PoLiMEr analog)."""

    def __init__(self, rate_hz: float = 1.0):
        if rate_hz <= 0:
            raise ValueError(f"rate must be positive, got {rate_hz}")
        self.rate_hz = float(rate_hz)

    def sample_times(self, start_s: float, end_s: float) -> np.ndarray:
        """The meter's tick grid covering ``[start_s, end_s]``.

        Index-based (``start + arange(n)/rate``) rather than a float
        ``arange`` step: accumulating ``1/rate`` drifts over multi-hour
        profiles and drops or duplicates the final tick for non-integer
        rates, whereas one multiply per index keeps every tick exact to
        one ulp and the endpoint included whenever it lands on the grid.
        """
        span = end_s - start_s
        if span < 0:
            return np.empty(0)
        n = int(np.floor(span * self.rate_hz + 1e-9)) + 1
        return start_s + np.arange(n) / self.rate_hz

    def sample(self, profile: PhasePowerProfile) -> List[PowerSample]:
        """Readings at t = 0, 1/rate, 2/rate, ... across the profile.

        One vectorized edge lookup for the whole grid rather than a
        per-tick phase scan (see :meth:`PhasePowerProfile.power_at_many`).
        """
        phases = profile.phases
        if not phases:
            return []
        times = self.sample_times(phases[0][1], phases[-1][2])
        watts = profile.power_at_many(times)
        return [PowerSample(float(t), float(w)) for t, w in zip(times, watts)]


def trapezoid_energy(samples: Sequence[PowerSample]) -> float:
    """Trapezoidal energy integral over meter samples (joules)."""
    if len(samples) < 2:
        return 0.0
    t = np.array([s.time_s for s in samples])
    w = np.array([s.power_w for s in samples])
    if np.any(np.diff(t) < 0):
        raise ValueError("samples must be time-ordered")
    return float(_trapezoid(w, t))
