"""repro.candle — the CANDLE Pilot1 benchmarks (NT3, P1B1, P1B2, P1B3).

Paper §2.1 / Table 1. Each benchmark follows the three-phase control
flow of Figure 2 — data loading & preprocessing, training &
cross-validation, prediction & evaluation — and carries its Table 1
configuration:

=========  ======  ======  =======  ========
field      NT3     P1B1    P1B2     P1B3
=========  ======  ======  =======  ========
train MB   597     771     162      318
test MB    150     258     55       103
epochs     384     384     768      1
batch      20      100     60       100
lr         0.001   (adam)  0.001    0.001
optimizer  sgd     adam    rmsprop  sgd
samples    1,120   2,700   2,700    900,100
elements   60,483  60,484  28,204   1,000
=========  ======  ======  =======  ========

Data is synthetic (we have no NCI Genomic Data Commons access) but
shape-exact and learnable: generators emit files with the same
row/column geometry, dtype mix, and a controllable class/response
signal so real training reproduces the paper's accuracy behaviour.
``scale`` shrinks geometry proportionally for laptop runs; the full
Table 1 geometry is used analytically by :mod:`repro.sim`.
"""

from repro.candle.base import BenchmarkSpec, CandleBenchmark, LoadedData
from repro.candle.nt3 import NT3Benchmark
from repro.candle.p1b1 import P1B1Benchmark
from repro.candle.p1b2 import P1B2Benchmark
from repro.candle.p1b3 import P1B3Benchmark
from repro.candle.pipeline import BenchmarkRunReport, run_benchmark
from repro.candle.registry import all_benchmarks, get_benchmark

__all__ = [
    "BenchmarkSpec",
    "CandleBenchmark",
    "LoadedData",
    "NT3Benchmark",
    "P1B1Benchmark",
    "P1B2Benchmark",
    "P1B3Benchmark",
    "run_benchmark",
    "BenchmarkRunReport",
    "get_benchmark",
    "all_benchmarks",
]
