"""Machine presets: Summit and Theta (paper §3).

A :class:`MachineSpec` bundles everything the simulator needs: node
topology (workers per node), the compute device each Horovod rank owns,
the interconnect fabric, the parallel filesystem, meter sampling rate,
and the platform's CSV parse-rate calibration (seconds per parsed value
per method — fitted once against the paper's Tables 3 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.devices import KNL7230, POWER9, V100, CpuSpec, GpuSpec
from repro.cluster.filesystem import FilesystemSpec, IoSkewModel
from repro.mpi.network import FabricSpec

__all__ = ["MachineSpec", "SUMMIT", "THETA", "get_machine"]


@dataclass(frozen=True)
class ParseRates:
    """Calibrated CSV parse costs (seconds) for one platform.

    The decomposition mirrors :mod:`repro.frame.csv`'s two engines:

    - ``conv_slow_pb`` / ``conv_fast_pb`` — per-byte tokenize+convert
      cost (C-speed in both engines; the fast path's bulk cast is
      slightly cheaper);
    - ``slow_per_colchunk`` — the low_memory engine's per-column,
      per-internal-chunk block cost (inference + allocation +
      consolidation). Internal chunks are ``SLOW_CHUNK_BYTES``-bounded,
      so wide rows (NT3: ~0.5 MB/row) degenerate to one row per chunk
      and this term is paid per value — the paper's wide-file blowup;
    - ``fast_per_cell`` — the fast engine's residual per-value overhead
      (column views, integer narrowing);
    - ``per_file`` — open/close/metadata overhead per file.
    """

    conv_slow_pb: float
    conv_fast_pb: float
    slow_per_colchunk: float
    fast_per_cell: float
    per_file: float

    #: the low_memory engine's internal chunk byte budget (pandas ~256 KB)
    SLOW_CHUNK_BYTES = 256 << 10

    def __post_init__(self):
        for f in (
            "conv_slow_pb",
            "conv_fast_pb",
            "slow_per_colchunk",
            "fast_per_cell",
            "per_file",
        ):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")


@dataclass(frozen=True)
class MachineSpec:
    """One HPC platform."""

    name: str
    total_nodes: int
    workers_per_node: int
    gpu: Optional[GpuSpec]
    cpu: CpuSpec
    fabric: FabricSpec
    filesystem: FilesystemSpec
    io_skew: IoSkewModel
    power_sample_hz: float
    parse: ParseRates
    node_power_w: float = 0.0
    #: fraction of device peak that CANDLE training kernels sustain
    compute_efficiency: float = 0.35
    #: per-batch-step framework overhead (Keras/TF session dispatch),
    #: the dominant term for small-batch CANDLE steps — calibrated so
    #: NT3's time/epoch anchors land (10.3 s on Summit, 695 s on Theta)
    step_overhead_s: float = 0.1
    #: one-time training-session warmup (TF graph build + first-step
    #: autotuning), amortized over the run's epochs
    session_warmup_s: float = 0.0
    #: per-benchmark throughput multipliers: different kernel mixes hit
    #: a device very differently (NT3's 1-D convs on KNL via TF 1.x are
    #: catastrophically slow while P1B2's small GEMMs hit MKL well)
    compute_multipliers: dict = field(default_factory=dict)

    def worker_device_power(self):
        """Power model of the device one Horovod rank runs on."""
        return (self.gpu or self.cpu).power

    def worker_flops(self, benchmark: Optional[str] = None) -> float:
        """Sustained FLOP/s per worker (optionally benchmark-specific)."""
        if self.gpu is not None:
            base = self.gpu.sustained_flops(self.compute_efficiency)
        else:
            base = self.cpu.sustained_flops(self.compute_efficiency)
        if benchmark is not None:
            base *= self.compute_multipliers.get(benchmark, 1.0)
        return base

    def max_workers(self) -> int:
        return self.total_nodes * self.workers_per_node

    def nodes_for(self, workers: int) -> int:
        """Nodes needed to host ``workers`` ranks."""
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        return -(-workers // self.workers_per_node)


SUMMIT = MachineSpec(
    name="Summit",
    total_nodes=4600,
    workers_per_node=6,  # one rank per V100 (paper Fig 5b)
    gpu=V100,
    cpu=POWER9,
    fabric=FabricSpec(
        name="NVLink+EDR-IB",
        intra_alpha_s=4.0e-6,
        intra_beta_s_per_b=1.0 / 25e9,  # NVLink brick, 25 GB/s/direction
        # per-hop latency reflects NCCL 2.3.7-era launch/negotiate cost —
        # the paper plans an upgrade to 2.4.2 precisely "to reduce the
        # communication overhead for the allreduce operations"
        inter_alpha_s=2.4e-5,
        inter_beta_s_per_b=1.0 / 12.0e9,  # dual-rail EDR InfiniBand
    ),
    filesystem=FilesystemSpec(
        name="Spectrum Scale (GPFS)",
        aggregate_bw_gb_s=2500.0,
        client_bw_gb_s=3.0,
        parse_contention_per_client=0.0002,
        max_io_block_mb=16.0,
    ),
    io_skew=IoSkewModel(cv=0.05),
    power_sample_hz=1.0,  # nvidia-smi default
    node_power_w=2200.0,
    # fitted against Table 3 (see repro.sim.calibration)
    parse=ParseRates(
        conv_slow_pb=1.59e-8,
        conv_fast_pb=1.30e-8,
        slow_per_colchunk=1.055e-6,
        fast_per_cell=8.5e-8,
        per_file=0.6,
    ),
    compute_efficiency=0.035,  # V100 sustains ~550 GF/s on tiny CANDLE batches
    step_overhead_s=0.15,
    session_warmup_s=3.0,
)

THETA = MachineSpec(
    name="Theta",
    total_nodes=4392,
    workers_per_node=1,  # one rank per KNL node, 64 threads (paper §2.3.2)
    gpu=None,
    cpu=KNL7230,
    fabric=FabricSpec(
        name="Aries dragonfly",
        intra_alpha_s=1.0e-6,
        intra_beta_s_per_b=1.0 / 8e9,
        inter_alpha_s=2.5e-6,
        inter_beta_s_per_b=1.0 / 8e9,
    ),
    filesystem=FilesystemSpec(
        name="Lustre",
        aggregate_bw_gb_s=210.0,
        client_bw_gb_s=1.5,
        # N-to-1 shared-file reads on Lustre degrade hard: calibrated so
        # 384-node NT3 loading is >4x Summit's (paper §5.1)
        parse_contention_per_client=0.019,
        max_io_block_mb=4.0,
    ),
    io_skew=IoSkewModel(cv=0.08),
    power_sample_hz=2.0,  # PoLiMEr/CapMC default
    node_power_w=300.0,
    # fitted against Table 4
    parse=ParseRates(
        conv_slow_pb=1.35e-8,
        conv_fast_pb=1.20e-8,
        slow_per_colchunk=6.5e-7,
        fast_per_cell=8.7e-8,
        per_file=0.6,
    ),
    # TF 1.x + Python pipeline on KNL: the paper measures 695 s/epoch for
    # NT3 vs 10.3 s on a V100 — a ~70x gap this efficiency reproduces
    compute_efficiency=0.0006,
    step_overhead_s=0.5,
    session_warmup_s=5.0,
    # P1B2's small dense GEMMs vectorize well under MKL on KNL, unlike
    # NT3's 1-D convolutions (fitted to §5.3's Theta improvement band)
    compute_multipliers={"P1B2": 4.0},
)

_MACHINES = {"summit": SUMMIT, "theta": THETA}


def get_machine(name: str) -> MachineSpec:
    """Look up a machine preset by (case-insensitive) name."""
    try:
        return _MACHINES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; known: {sorted(_MACHINES)}"
        ) from None
