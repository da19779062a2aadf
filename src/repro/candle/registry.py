"""Benchmark registry.

The paper's evaluation covers the four Pilot1 benchmarks of Table 1
(``BENCHMARKS``); :func:`get_benchmark` resolves any of them by name.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.candle.base import CandleBenchmark
from repro.candle.nt3 import NT3Benchmark
from repro.candle.p1b1 import P1B1Benchmark
from repro.candle.p1b2 import P1B2Benchmark
from repro.candle.p1b3 import P1B3Benchmark

__all__ = [
    "get_benchmark",
    "all_benchmarks",
    "BENCHMARKS",
]

#: the paper's P1 suite (Table 1)
BENCHMARKS: Dict[str, Type[CandleBenchmark]] = {
    "nt3": NT3Benchmark,
    "p1b1": P1B1Benchmark,
    "p1b2": P1B2Benchmark,
    "p1b3": P1B3Benchmark,
}


def get_benchmark(name: str, scale: float = 1.0, **kwargs) -> CandleBenchmark:
    """Instantiate a P1 benchmark by name (case-insensitive)."""
    cls = BENCHMARKS.get(name.lower())
    if cls is None:
        raise ValueError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    return cls(scale=scale, **kwargs)


def all_benchmarks(scale: float = 1.0) -> List[CandleBenchmark]:
    """The paper's four P1 benchmarks at the given scale, Table 1 order."""
    return [cls(scale=scale) for cls in BENCHMARKS.values()]
