"""Training-compute cost model.

One batch step costs::

    step_s = machine.step_overhead_s + batch * per_sample_s
    per_sample_s = 6 * model_params / machine.worker_flops()

(forward ≈ 2 FLOP/param/sample, backward ≈ twice the forward). For the
CANDLE benchmarks the framework overhead term dominates — NT3 at batch
20 spends ~34 ms of a ~184 ms step in math — which is why the paper
finds larger batches give "smaller time per epoch" (fewer overhead
payments for the same sample count) and why NT3 is "not
compute-intensive" on Summit.

The model also supplies the training-phase GPU *intensity* used by the
power model: a base utilization (clocks/memory held high by the kernel
stream) plus the math duty cycle, with a mild negative batch exponent
fitted to Table 2's observation that batch 40 runs at slightly lower
average power than batch 20.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.candle.base import BenchmarkSpec
from repro.cluster.machine import MachineSpec

__all__ = [
    "ComputeModel",
    "exposed_comm_seconds",
    "overlap_fraction",
    "OVERLAP_EFFICIENCY",
]

#: FLOPs per parameter per sample for one fwd+bwd pass
_FLOPS_PER_PARAM = 6.0

#: share of a step's allreduce the wait-free scheduler can hide behind
#: backward when backward is long enough — the first-fired (deepest)
#: buckets become ready only as backward *ends*, so some comm is always
#: exposed at the drain fence
OVERLAP_EFFICIENCY = 0.7


def exposed_comm_seconds(
    comm_s: float, backward_s: float, efficiency: float = OVERLAP_EFFICIENCY
) -> float:
    """Per-step communication left on the critical path under overlap.

    The overlapped timeline hides ``min(comm * efficiency, backward)``
    of the gradient exchange behind the backward pass (wait-free
    backprop); the remainder is what the pre-update drain fence waits
    out. ``efficiency`` caps the hideable share — the earliest layers'
    buckets release only at backward's end.
    """
    if comm_s < 0 or backward_s < 0:
        raise ValueError("comm_s and backward_s must be non-negative")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency}")
    hidden = min(comm_s * efficiency, backward_s)
    return comm_s - hidden


def overlap_fraction(
    comm_s: float, backward_s: float, efficiency: float = OVERLAP_EFFICIENCY
) -> float:
    """Share of per-step communication hidden behind backward (0 when
    there is no communication)."""
    if comm_s <= 0:
        return 0.0
    exposed = exposed_comm_seconds(comm_s, backward_s, efficiency)
    return (comm_s - exposed) / comm_s


@dataclass(frozen=True)
class ComputeModel:
    """Per-step / per-epoch training times for one machine."""

    machine: MachineSpec
    #: floor + slope mapping math duty cycle to power-model intensity
    intensity_base: float = 0.30
    intensity_span: float = 0.70
    #: empirical batch-size power exponent (Table 2: batch 40 draws less)
    batch_power_exponent: float = 0.35

    def per_sample_seconds(self, spec: BenchmarkSpec) -> float:
        """Math seconds to push one sample through fwd+bwd."""
        return (
            _FLOPS_PER_PARAM
            * spec.model_params_full
            / self.machine.worker_flops(spec.name)
        )

    def step_seconds(self, spec: BenchmarkSpec, batch_size: int) -> float:
        """One training batch step (framework overhead + math)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return self.machine.step_overhead_s + batch_size * self.per_sample_seconds(spec)

    def backward_seconds(self, spec: BenchmarkSpec, batch_size: int) -> float:
        """The backward share of a step's math — the window wait-free
        backprop can hide gradient traffic in (backward ≈ 2/3 of
        fwd+bwd, since backward differentiates both inputs and weights).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return 2.0 / 3.0 * batch_size * self.per_sample_seconds(spec)

    def epoch_compute_seconds(self, spec: BenchmarkSpec, batch_size: int) -> float:
        """One epoch's pure-compute time (no communication)."""
        steps = spec.steps_per_epoch_at(batch_size)
        return steps * self.step_seconds(spec, batch_size)

    def eval_seconds(self, spec: BenchmarkSpec, batch_size: int = 256) -> float:
        """Phase 3: forward-only pass over the test set."""
        steps = max(1, spec.test_samples // batch_size)
        forward_per_sample = self.per_sample_seconds(spec) / 3.0
        return steps * self.machine.step_overhead_s * 0.5 + (
            spec.test_samples * forward_per_sample
        )

    def math_duty_cycle(self, spec: BenchmarkSpec, batch_size: int) -> float:
        """Fraction of a step spent in device math (vs framework)."""
        step = self.step_seconds(spec, batch_size)
        return (batch_size * self.per_sample_seconds(spec)) / step

    def train_intensity(self, spec: BenchmarkSpec, batch_size: int) -> float:
        """Power-model intensity of the training phase, in [0, 1]."""
        duty = self.math_duty_cycle(spec, batch_size)
        intensity = self.intensity_base + self.intensity_span * duty
        if batch_size > spec.batch_size:
            intensity *= (spec.batch_size / batch_size) ** self.batch_power_exponent
        return min(1.0, intensity)
