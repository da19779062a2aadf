"""Load generation for the serving subsystem: Poisson arrival traces.

The serving plane is driven **open-loop**: requests arrive on a
schedule regardless of completions, the right model for
internet-facing traffic — overload shows up as queue growth and
deadline violations, not as a polite slowdown of the generator. The
schedule is a constant-rate Poisson process, seeded, held as an array
of absolute arrival offsets so the same trace can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["poisson_arrivals", "OpenWorkload"]


def poisson_arrivals(qps: float, duration_s: float, seed: int = 0) -> np.ndarray:
    """Constant-rate Poisson arrival offsets in ``[0, duration_s)``.

    Inter-arrival gaps are exponential with mean ``1/qps`` — the
    memoryless process aggregated independent callers converge to.
    """
    if qps <= 0:
        raise ValueError(f"qps must be positive, got {qps}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    rng = np.random.default_rng(seed)
    # draw enough gaps to overshoot the window, then trim
    n = max(16, int(qps * duration_s * 2) + 16)
    times = np.cumsum(rng.exponential(1.0 / qps, size=n))
    while times[-1] < duration_s:
        times = np.concatenate(
            [times, times[-1] + np.cumsum(rng.exponential(1.0 / qps, size=n))]
        )
    return times[times < duration_s]


@dataclass(frozen=True)
class OpenWorkload:
    """Arrival-schedule-driven load: offsets + rows per request.

    ``arrivals`` holds absolute offsets (seconds from workload start);
    every request carries ``rows_per_request`` feature rows.
    """

    arrivals: np.ndarray
    rows_per_request: int = 1

    def __post_init__(self):
        if self.rows_per_request <= 0:
            raise ValueError(
                f"rows_per_request must be positive, got {self.rows_per_request}"
            )
        if len(self.arrivals) == 0:
            raise ValueError("open workload needs at least one arrival")

    @property
    def total_requests(self) -> int:
        return int(len(self.arrivals))

    @property
    def duration_s(self) -> float:
        return float(self.arrivals[-1])

