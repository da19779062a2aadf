"""Compute-device specs and their power behaviour.

The simulator charges training compute against a device's sustained
throughput and reads power off a simple state model: a device draws
``idle_w`` when parked, ``io_w`` while the host loads data (GPU idle,
CPU parsing — the low-power plateau visible in the paper's Fig 7a), and
an intensity-dependent compute draw while training. Intensity < 1
captures the paper's observation that the CANDLE benchmarks do not
saturate a V100 (NT3 is "not compute-intensive" on Summit).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GpuSpec",
    "CpuSpec",
    "DevicePowerModel",
]


@dataclass(frozen=True)
class DevicePowerModel:
    """Piecewise power states for one device (watts).

    ``comm_w`` is the draw during collective communication: a GPU
    driving NCCL ring steps keeps copy engines and some SMs busy, well
    above idle but below dense math.
    """

    idle_w: float
    io_w: float
    compute_base_w: float
    compute_span_w: float
    comm_w: float = 0.0  # 0 → fall back to io_w

    def __post_init__(self):
        for f in ("idle_w", "io_w", "compute_base_w", "compute_span_w", "comm_w"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")

    def compute_w(self, intensity: float) -> float:
        """Draw at a given compute intensity in [0, 1]."""
        x = min(max(intensity, 0.0), 1.0)
        return self.compute_base_w + x * self.compute_span_w

    def communicate_w(self) -> float:
        """Draw while executing collectives (above idle, below math)."""
        return self.comm_w if self.comm_w > 0 else self.io_w


@dataclass(frozen=True)
class GpuSpec:
    """An accelerator (Summit's V100)."""

    name: str
    peak_fp32_tflops: float
    mem_bandwidth_gb_s: float
    mem_gb: float
    tdp_w: float
    power: DevicePowerModel

    def sustained_flops(self, efficiency: float = 0.35) -> float:
        """FLOP/s the simulator charges DL kernels against.

        Deep-learning GEMMs on small CANDLE batches reach a fraction of
        peak; ``efficiency`` is calibrated in :mod:`repro.sim`.
        """
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        return self.peak_fp32_tflops * 1e12 * efficiency


@dataclass(frozen=True)
class CpuSpec:
    """A host processor (Summit's POWER9, Theta's KNL 7230)."""

    name: str
    cores: int
    peak_fp64_gflops: float
    tdp_w: float
    power: DevicePowerModel

    def sustained_flops(self, efficiency: float = 0.10) -> float:
        """FLOP/s charged to DL kernels on CPU (Theta runs TF on KNL)."""
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        return self.peak_fp64_gflops * 1e9 * efficiency


# -- presets (paper §3 numbers) ---------------------------------------------

V100 = GpuSpec(
    name="NVIDIA Tesla V100",
    peak_fp32_tflops=15.7,
    mem_bandwidth_gb_s=900.0,
    mem_gb=16.0,
    tdp_w=300.0,
    # low idle floor (V100 parks near 36 W with an idle context); the
    # gap between I/O-phase and training-phase draw is what produces the
    # paper's Table 5a power increase when loading shrinks
    power=DevicePowerModel(
        idle_w=36.0, io_w=42.0, compute_base_w=90.0, compute_span_w=210.0, comm_w=120.0
    ),
)

POWER9 = CpuSpec(
    name="IBM POWER9",
    cores=21,
    peak_fp64_gflops=540.0,
    tdp_w=190.0,
    power=DevicePowerModel(idle_w=60.0, io_w=110.0, compute_base_w=120.0, compute_span_w=70.0),
)

KNL7230 = CpuSpec(
    name="Intel Xeon Phi KNL 7230",
    cores=64,
    peak_fp64_gflops=2662.0,
    tdp_w=215.0,
    # PoLiMEr measures at node level: Theta nodes idle ~140 W and run
    # 210-240 W under load — a much narrower dynamic range than a GPU,
    # which is why Theta's energy savings track its time savings closely
    # (§5: 45.22% perf vs 41.78% energy for P1B1)
    power=DevicePowerModel(
        idle_w=140.0, io_w=160.0, compute_base_w=175.0, compute_span_w=60.0, comm_w=150.0
    ),
)
