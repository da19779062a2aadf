"""repro.serve — open-loop inference serving with dynamic batching.

The paper trains CANDLE models at scale; this package serves a trained
model to callers under a latency deadline, for the
``serve_p1b2_open`` workload of ``BENCHMARK.json``. Its levers are the
ones the training study measures: batching amortizes fixed per-step
cost (the paper's batch-size sweep, §5), and replicas add throughput
the way data-parallel ranks do.

Layout:

- :class:`ServeOptions` — the one frozen keyword-only knob object, in
  the family of :class:`~repro.train.TrainOptions` and
  :class:`~repro.comms.CollectiveOptions` (see :mod:`repro.options`).
- :class:`DynamicBatcher` — bounded admission (block / reject) +
  deadline-budgeted batch assembly.
- :func:`serve_workload` — the SPMD serving plane: rank-0 front-end,
  N inference replicas, RPC over :class:`repro.ps.RpcChannel`,
  p50/p99/throughput SLO tracking.
- :mod:`~repro.serve.loadgen` — the seeded Poisson arrival trace of an
  open-loop workload.
"""

from repro.serve.batcher import Batch, DynamicBatcher, Request
from repro.serve.loadgen import OpenWorkload, poisson_arrivals
from repro.serve.options import (
    ADMISSION_POLICIES,
    DEFAULT_SERVE_OPTIONS,
    ServeOptions,
)
from repro.serve.server import (
    ServeReport,
    install_weights,
    request_features,
    serve_workload,
)
from repro.serve.slo import SloReport, SloTracker

__all__ = [
    "ServeOptions",
    "DEFAULT_SERVE_OPTIONS",
    "ADMISSION_POLICIES",
    "DynamicBatcher",
    "Request",
    "Batch",
    "OpenWorkload",
    "poisson_arrivals",
    "SloTracker",
    "SloReport",
    "serve_workload",
    "ServeReport",
    "install_weights",
    "request_features",
]
