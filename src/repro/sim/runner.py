"""ScaledRunSimulator: one full benchmark run at paper scale.

Composes the I/O model (per-rank skewed loading under filesystem
contention), the fabric cost model (tree broadcast, fused ring
allreduce per step), the compute model (framework overhead + math), and
the device power model into a :class:`~repro.sim.report.SimRunReport`.

The phase sequence mirrors the functional runner in
:mod:`repro.core.parallel` one-for-one, so a change to the methodology
(epoch partitioning, batch scaling, load method) flows through both
execution modes identically.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.candle.base import BenchmarkSpec
from repro.candle.registry import get_benchmark
from repro.cluster.machine import MachineSpec, get_machine
from repro.comms import (
    DEFAULT_OPTIONS,
    CollectiveOptions,
    Topology,
    plan_allreduce,
    plan_broadcast,
)
from repro.core.scaling import ScalingPlan
from repro.mpi.network import CollectiveCostModel
from repro.sim.computemodel import (
    OVERLAP_EFFICIENCY,
    ComputeModel,
    exposed_comm_seconds,
    overlap_fraction,
)
from repro.sim.engine import PhaseSimulator
from repro.sim.iomodel import IoModel
from repro.sim.report import SimRunReport
from repro.train.options import TrainOptions

__all__ = ["ScaledRunSimulator"]


class ScaledRunSimulator:
    """Simulates CANDLE/Horovod runs on one machine model.

    ``overlap`` models Horovod's signature interleaving of communication
    and computation (§2.2): gradients of already-backpropagated layers
    reduce while earlier layers still compute, hiding up to
    ``overlap_fraction`` of each step's allreduce behind its backward
    pass. ``overlap=False`` is the naive synchronous schedule (an
    ablation target).

    ``collective`` is the run's :class:`repro.comms.CollectiveOptions`:
    gradient traffic is priced by planning each fused buffer with
    :func:`repro.comms.plan_allreduce` on this machine's topology and
    charging the schedule on its fabric — the same planner the
    functional engine executes, so algorithm and chunking choices move
    simulated time too. The defaults resolve to the
    hierarchical schedule and price identically to the pre-engine cost
    model.
    """

    #: share of the backward pass a fused allreduce can hide behind;
    #: the first-fired (deepest) tensors cannot overlap with anything
    OVERLAP_FRACTION = OVERLAP_EFFICIENCY

    #: emit per-step timeline events up to this many train steps per run
    #: (above it, bands merge per epoch to bound event counts)
    MAX_STEP_EVENTS = 256

    def __init__(
        self,
        machine: Union[MachineSpec, str],
        overlap: bool = True,
        collective: Optional[CollectiveOptions] = None,
        train: Optional[TrainOptions] = None,
    ):
        self.machine = get_machine(machine) if isinstance(machine, str) else machine
        self.io = IoModel(self.machine)
        self.compute = ComputeModel(self.machine)
        if train is not None:
            # one TrainOptions prices the same run the functional step
            # executes; explicit overlap=/collective= kwargs stay for the
            # sim-only call sites that predate it
            self.overlap = bool(train.overlap)
            self.collective = (
                train.collective if train.collective is not None
                else DEFAULT_OPTIONS
            )
        else:
            self.overlap = bool(overlap)
            self.collective = collective if collective is not None else DEFAULT_OPTIONS
        self.train = train

    def effective_step_comm_seconds(
        self, spec: BenchmarkSpec, nworkers: int, batch_size: int
    ) -> float:
        """Per-step communication time *exposed* on the critical path."""
        comm = self.allreduce_step_seconds(spec, nworkers)
        if not self.overlap or comm == 0.0:
            return comm
        backward = self.compute.backward_seconds(spec, batch_size)
        return exposed_comm_seconds(comm, backward, self.OVERLAP_FRACTION)

    def step_overlap_fraction(
        self, spec: BenchmarkSpec, nworkers: int, batch_size: int
    ) -> float:
        """Modeled share of per-step allreduce hidden behind backward."""
        if not self.overlap:
            return 0.0
        comm = self.allreduce_step_seconds(spec, nworkers)
        backward = self.compute.backward_seconds(spec, batch_size)
        return overlap_fraction(comm, backward, self.OVERLAP_FRACTION)

    # -- communication ---------------------------------------------------------
    def _cost_model(self) -> CollectiveCostModel:
        return CollectiveCostModel(
            self.machine.fabric, ranks_per_node=self.machine.workers_per_node
        )

    def allreduce_step_seconds(self, spec: BenchmarkSpec, nworkers: int) -> float:
        """Per-step gradient allreduce: planned fused-buffer schedules."""
        if nworkers <= 1:
            return 0.0
        cm = self._cost_model()
        topo = Topology.from_machine(self.machine, nworkers)
        opts = self.collective
        remaining = spec.gradient_bytes
        total = cm.negotiate(nworkers)
        while remaining > 0:
            buf = min(remaining, opts.fusion_bytes)
            total += plan_allreduce(buf, topo, opts).seconds(self.machine.fabric)
            remaining -= buf
        return total

    def broadcast_seconds(self, spec: BenchmarkSpec, nworkers: int) -> float:
        """Initial weight broadcast (planned tree) plus negotiation."""
        if nworkers <= 1:
            return 0.0
        cm = self._cost_model()
        topo = Topology.from_machine(self.machine, nworkers)
        schedule = plan_broadcast(spec.gradient_bytes, topo, self.collective)
        return cm.negotiate(nworkers) + schedule.seconds(self.machine.fabric)

    # -- the run ------------------------------------------------------------------
    def run(
        self,
        benchmark: Union[BenchmarkSpec, str],
        plan: ScalingPlan,
        method: str = "original",
        seed: int = 0,
        keep_profiles: bool = True,
        tracer=None,
    ) -> SimRunReport:
        """Simulate one run; returns the full report.

        ``method`` picks the data-loading implementation ('original',
        'chunked', 'dask'). ``seed`` fixes the per-rank I/O skew draw.
        ``tracer`` (a :class:`repro.telemetry.Tracer`) receives one span
        per simulated phase of the tracked ranks, in sim time; bind a
        tracked rank's power profile afterwards for per-span joules.
        """
        spec = (
            get_benchmark(benchmark).spec if isinstance(benchmark, str) else benchmark
        )
        n = plan.nworkers
        power = self.machine.worker_device_power()

        # ---- phase 1: data loading (skewed, contended) -------------------
        base_load = self.io.benchmark_load_seconds(spec, method, nclients=n)
        factors = self.machine.io_skew.factors(n, seed=seed)
        # track the fastest/median/slowest loaders: their profiles span
        # the negotiate_broadcast skew the paper's timelines show
        order = np.argsort(factors)
        tracked = {int(order[0]), int(order[len(order) // 2]), int(order[-1])}
        sim = PhaseSimulator(n, track_ranks=tracked, tracer=tracer)
        load_vector = base_load * factors
        sim.advance(load_vector, "data_loading", power.io_w)

        # ---- negotiate + broadcast ----------------------------------------
        waits = sim.synchronize("negotiate_broadcast", power.idle_w)
        bcast = self.broadcast_seconds(spec, n)
        sim.advance(bcast, "mpi_broadcast", power.io_w)

        # ---- phase 2: training ---------------------------------------------
        # one-time graph build / autotune, folded into the "TensorFlow"
        # (training) phase as the paper's timings do
        if self.machine.session_warmup_s > 0:
            sim.advance(
                self.machine.session_warmup_s,
                "train_compute",
                power.compute_w(0.3),
            )
        steps = spec.steps_per_epoch_at(plan.batch_size)
        step_s = self.compute.step_seconds(spec, plan.batch_size)
        comm_s = self.effective_step_comm_seconds(spec, n, plan.batch_size)
        intensity = self.compute.train_intensity(spec, plan.batch_size)
        p_train = power.compute_w(intensity)
        p_comm = power.communicate_w()
        # timeline granularity: per-step alternation when the event count
        # stays small (Fig 7b's periodic allreduce bands), else merged
        # per-epoch bands (Fig 19's "8 pieces for 8 epochs" zoom level)
        per_step = plan.epochs_per_worker * steps <= self.MAX_STEP_EVENTS
        for _ in range(plan.epochs_per_worker):
            if per_step and comm_s > 0:
                for _ in range(steps):
                    sim.lockstep(step_s, "train_compute", p_train)
                    sim.lockstep(comm_s, "nccl_allreduce", p_comm)
            else:
                sim.lockstep(step_s, "train_compute", p_train, repeats=steps)
                if comm_s > 0:
                    sim.lockstep(comm_s, "nccl_allreduce", p_comm, repeats=steps)

        # ---- phase 3: evaluation --------------------------------------------
        sim.advance(
            self.compute.eval_seconds(spec),
            "evaluate",
            power.compute_w(intensity * 0.8),
        )

        total = sim.elapsed_s
        energy = sim.mean_energy_j()
        phases = sim.phase_report()
        # Report the *mean* per-rank load and wait: every rank satisfies
        # load_r + wait_r = max(load), so the means compose exactly to
        # the makespan (max load + max wait would double-count the skew).
        return SimRunReport(
            machine=self.machine.name,
            benchmark=spec.name,
            plan=plan,
            method=method,
            load_s=float(np.mean(load_vector)),
            broadcast_wait_s=float(np.mean(waits)),
            broadcast_s=phases.get("mpi_broadcast", 0.0),
            train_compute_s=phases.get("train_compute", 0.0),
            train_comm_s=phases.get("nccl_allreduce", 0.0),
            eval_s=phases.get("evaluate", 0.0),
            overlap_fraction=self.step_overlap_fraction(spec, n, plan.batch_size),
            avg_power_w=energy / total if total > 0 else 0.0,
            energy_per_worker_j=energy,
            tracer=sim.tracer if keep_profiles else None,
            profiles=sim.profiles if keep_profiles else {},
        )
