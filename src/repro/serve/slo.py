"""SLO accounting: latency percentiles, throughput, deadline violations.

A serving run's contract is a *distribution*, not a mean: "p99 under
the deadline" is the promise interactive callers get, and the tail is
exactly where batching and queueing show up. The tracker
records one sample per completed request and reduces to an
:class:`SloReport` at the end; the report is what the benchmark gates
(:mod:`benchmarks.perf_gate`) and the results table consume.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SloTracker", "SloReport"]


@dataclass(frozen=True)
class SloReport:
    """One serving run reduced to its service-level numbers."""

    requests: int
    rows: int
    rejected: int
    #: always 0: the plane drops no admitted request (kept for the
    #: readers of a report)
    shed: int
    wall_s: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    deadline_ms: float
    deadline_violations: int

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall time."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def rows_per_s(self) -> float:
        """Completed feature rows per second (the batching win metric)."""
        return self.rows / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def meets_p99(self) -> bool:
        """True when the observed p99 is within the deadline."""
        return self.p99_ms <= self.deadline_ms

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "rejected": self.rejected,
            "shed": self.shed,
            "wall_s": self.wall_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "deadline_ms": self.deadline_ms,
            "deadline_violations": self.deadline_violations,
            "throughput_rps": self.throughput_rps,
            "rows_per_s": self.rows_per_s,
            "meets_p99": self.meets_p99,
        }


class SloTracker:
    """Thread-safe accumulation of per-request latency samples."""

    def __init__(self, deadline_ms: float):
        self.deadline_ms = float(deadline_ms)
        self._lock = threading.Lock()
        self._latencies_ms: list[float] = []
        self._rows = 0
        self._rejected = 0

    def record(self, latency_s: float, rows: int = 1) -> None:
        """One completed request: its end-to-end latency and row count."""
        with self._lock:
            self._latencies_ms.append(latency_s * 1000.0)
            self._rows += int(rows)

    def record_rejected(self, n: int = 1) -> None:
        with self._lock:
            self._rejected += n

    @property
    def completed(self) -> int:
        with self._lock:
            return len(self._latencies_ms)

    def report(self, wall_s: float, deadline_ms: Optional[float] = None) -> SloReport:
        """Reduce the samples to an :class:`SloReport` over ``wall_s``."""
        limit = self.deadline_ms if deadline_ms is None else float(deadline_ms)
        with self._lock:
            lat = np.asarray(self._latencies_ms, dtype=np.float64)
            rows, rejected = self._rows, self._rejected
        if len(lat) == 0:
            return SloReport(
                requests=0, rows=0, rejected=rejected, shed=0,
                wall_s=float(wall_s), p50_ms=0.0, p99_ms=0.0, mean_ms=0.0,
                max_ms=0.0, deadline_ms=limit, deadline_violations=0,
            )
        return SloReport(
            requests=int(len(lat)),
            rows=rows,
            rejected=rejected,
            shed=0,
            wall_s=float(wall_s),
            p50_ms=float(np.percentile(lat, 50)),
            p99_ms=float(np.percentile(lat, 99)),
            mean_ms=float(lat.mean()),
            max_ms=float(lat.max()),
            deadline_ms=limit,
            deadline_violations=int((lat > limit).sum()),
        )
