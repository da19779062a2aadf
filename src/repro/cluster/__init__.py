"""repro.cluster — models of the paper's two machines.

Paper §3 describes the platforms:

- **Summit** (OLCF): ~4,600 IBM AC922 nodes, each 2 POWER9 (21 usable
  cores each, 190 W TDP) + 6 NVIDIA V100 (300 W TDP), NVLink bricks at
  25 GB/s/direction, 512 GB DDR4 + 96 GB HBM2, Spectrum Scale (GPFS)
  at 250 PB / 2.5 TB/s peak write, 16 MB max I/O block. Node power
  2,200 W. GPU power measured by nvidia-smi at 1 sample/s.
- **Theta** (ALCF): Cray XC40, one KNL 7230 per node (64 cores, 215 W
  TDP), 16 GB MCDRAM + 192 GB DDR4, Aries dragonfly, Lustre at 10 PB /
  210 GB/s. Node power measured via PoLiMEr/CapMC at ~2 samples/s.

These specs parameterize the filesystem-contention, fabric, compute,
and power models that :mod:`repro.sim` composes into full runs.
"""

from repro.cluster.devices import CpuSpec, GpuSpec, DevicePowerModel
from repro.cluster.filesystem import FilesystemSpec, IoSkewModel
from repro.cluster.machine import MachineSpec, SUMMIT, THETA, get_machine
from repro.cluster.power import (
    PhasePowerProfile,
    PowerMeter,
    PowerSample,
    trapezoid_energy,
)

__all__ = [
    "CpuSpec",
    "GpuSpec",
    "DevicePowerModel",
    "FilesystemSpec",
    "IoSkewModel",
    "MachineSpec",
    "SUMMIT",
    "THETA",
    "get_machine",
    "PhasePowerProfile",
    "PowerMeter",
    "PowerSample",
    "trapezoid_energy",
]
