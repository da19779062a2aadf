"""MTBF failure processes, Young/Daly intervals, resilient-run simulation.

At the paper's scales (3,072 Theta ranks, 1,536 Summit GPUs) failures
are not rare events: a job over ``n`` ranks with per-rank MTBF ``M``
sees a failure every ``M/n`` seconds. This module supplies the three
pieces the checkpoint-interval analysis needs:

- :class:`MtbfFailureProcess` — a seeded exponential (Poisson) arrival
  process for whole-job failures, deterministic per seed, which also
  plugs into :class:`repro.sim.engine.PhaseSimulator` so paper-scale
  simulations model expected failures per job;
- :func:`young_daly_interval` / :func:`daly_interval` — the classic
  optimal checkpoint spacing √(2·C·M) and Daly's higher-order
  refinement, plus :func:`expected_makespan`, Daly's closed-form
  expected completion time used as the analytic cross-check;
- :class:`ResilientRunSimulator` — replays a
  :class:`~repro.sim.runner.ScaledRunSimulator` run with periodic
  checkpoint writes, sampled failures, lost work, and restart+reload
  costs, charging every second to the machine's power states so the
  *energy* overhead of a checkpoint policy is reported alongside the
  time overhead (the KIT energy paper's concern, applied to recovery).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.candle.base import BenchmarkSpec
from repro.candle.registry import get_benchmark
from repro.cluster.machine import MachineSpec, get_machine
from repro.comms import DEFAULT_OPTIONS, Topology, plan_allreduce
from repro.comms.ft.detector import detector_for
from repro.comms.ft.options import DEFAULT_FT_OPTIONS
from repro.core.scaling import ScalingPlan
from repro.sim.engine import PhaseSimulator
from repro.sim.runner import ScaledRunSimulator

__all__ = [
    "MtbfFailureProcess",
    "FailureModel",
    "young_daly_interval",
    "daly_interval",
    "expected_makespan",
    "checkpoint_write_seconds",
    "ft_detection_seconds",
    "ft_rebuild_seconds",
    "ResilientSimReport",
    "ResilientRunSimulator",
    "simulate_resilient_run",
]


class MtbfFailureProcess:
    """Seeded Poisson failure arrivals for an ``n``-rank job.

    Each rank fails independently with exponential inter-arrival times
    of mean ``mtbf_rank_s``; the superposition is a Poisson process
    with job MTBF ``mtbf_rank_s / nranks``. Arrivals are drawn lazily
    from a seeded generator, so the same seed replays the same failure
    history — the simulator-side analog of a seeded
    :class:`repro.resilience.FaultPlan`.
    """

    def __init__(self, mtbf_rank_s: float, nranks: int, seed: int = 0):
        if mtbf_rank_s <= 0:
            raise ValueError(f"mtbf_rank_s must be positive, got {mtbf_rank_s}")
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.mtbf_rank_s = float(mtbf_rank_s)
        self.nranks = int(nranks)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._next_t = self._draw()

    @property
    def job_mtbf_s(self) -> float:
        """Mean time between failures of the whole job."""
        return self.mtbf_rank_s / self.nranks

    def _draw(self) -> float:
        return float(self._rng.exponential(self.job_mtbf_s))

    def next_failure_after(self, t_s: float) -> float:
        """Absolute time of the first failure strictly after ``t_s``.

        Monotone use only (the process moves forward in time, like the
        simulator's clock).
        """
        while self._next_t <= t_s:
            self._next_t += self._draw()
        return self._next_t

    def expected_failures(self, duration_s: float) -> float:
        """Mean number of failures over a window of ``duration_s``."""
        if duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {duration_s}")
        return duration_s / self.job_mtbf_s


@dataclass(frozen=True)
class FailureModel:
    """The resilience parameters of a machine, per rank.

    ``mtbf_rank_s`` is one rank-slot's mean time between failures
    (hardware + system software); ``restart_s`` is the scheduler's
    job-relaunch latency; ``checkpoint_write_s`` / ``checkpoint_read_s``
    override the filesystem-derived checkpoint costs when given.
    ``reload_on_restart`` charges the data-loading + broadcast phases
    again on every restart — the paper's own loading analysis says this
    is where restart time goes at scale.
    """

    mtbf_rank_s: float
    restart_s: float = 60.0
    checkpoint_write_s: Optional[float] = None
    checkpoint_read_s: Optional[float] = None
    reload_on_restart: bool = True

    def __post_init__(self):
        if self.mtbf_rank_s <= 0:
            raise ValueError(f"mtbf_rank_s must be positive, got {self.mtbf_rank_s}")
        if self.restart_s < 0:
            raise ValueError(f"restart_s must be non-negative, got {self.restart_s}")

    def job_mtbf_s(self, nranks: int) -> float:
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        return self.mtbf_rank_s / nranks

    def process(self, nranks: int, seed: int = 0) -> MtbfFailureProcess:
        return MtbfFailureProcess(self.mtbf_rank_s, nranks, seed=seed)


def young_daly_interval(checkpoint_s: float, mtbf_s: float) -> float:
    """Young's first-order optimal checkpoint interval: √(2·C·M).

    ``checkpoint_s`` is the cost of one checkpoint write, ``mtbf_s``
    the *job* MTBF. Valid for C ≪ M (the regime any sane configuration
    lives in).
    """
    if checkpoint_s <= 0 or mtbf_s <= 0:
        raise ValueError("checkpoint_s and mtbf_s must be positive")
    return math.sqrt(2.0 * checkpoint_s * mtbf_s)


def daly_interval(checkpoint_s: float, mtbf_s: float) -> float:
    """Daly's higher-order optimum (2006), valid for C < 2·M.

    τ_opt = √(2·C·M) · [1 + ⅓·√(C/(2M)) + (1/9)·(C/(2M))] − C; for
    C ≥ 2·M the model degenerates and the best available policy is to
    checkpoint continuously (τ = M).
    """
    if checkpoint_s <= 0 or mtbf_s <= 0:
        raise ValueError("checkpoint_s and mtbf_s must be positive")
    ratio = checkpoint_s / (2.0 * mtbf_s)
    if ratio >= 1.0:
        return mtbf_s
    return (
        math.sqrt(2.0 * checkpoint_s * mtbf_s)
        * (1.0 + math.sqrt(ratio) / 3.0 + ratio / 9.0)
        - checkpoint_s
    )


def expected_makespan(
    work_s: float,
    interval_s: float,
    checkpoint_s: float,
    mtbf_s: float,
    restart_s: float = 0.0,
) -> float:
    """Daly's closed-form expected completion time of a checkpointed job.

    With exponential failures of mean ``mtbf_s``, a segment of ``τ``
    useful seconds plus a ``C``-second checkpoint completes in expected
    time ``M·e^{R/M}·(e^{(τ+C)/M} − 1)`` including all its failed
    tries; the job is ``W/τ`` such segments. Minimizing this over τ
    reproduces :func:`daly_interval` (covered by a unit test).
    """
    if work_s <= 0:
        raise ValueError(f"work_s must be positive, got {work_s}")
    if interval_s <= 0:
        raise ValueError(f"interval_s must be positive, got {interval_s}")
    if checkpoint_s < 0 or restart_s < 0:
        raise ValueError("checkpoint_s and restart_s must be non-negative")
    if mtbf_s <= 0:
        raise ValueError(f"mtbf_s must be positive, got {mtbf_s}")
    segments = work_s / interval_s
    per_segment = (
        mtbf_s
        * math.exp(restart_s / mtbf_s)
        * (math.exp((interval_s + checkpoint_s) / mtbf_s) - 1.0)
    )
    return segments * per_segment


def checkpoint_write_seconds(spec: BenchmarkSpec, machine: MachineSpec) -> float:
    """Rank-0's cost to write one model+optimizer checkpoint.

    The paper's checkpoint is model-sized: weights plus optimizer slots
    (~3x the gradient bytes for Adam-family optimizers — weight, m, v)
    through one client's share of the parallel filesystem, plus
    metadata latency. A conservative single-writer model: rank 0 writes
    while everyone else waits (the protocol the Horovod callback uses).
    """
    payload = 3.0 * spec.gradient_bytes
    bw = machine.filesystem.client_bw_gb_s * 1e9
    return payload / bw + machine.parse.per_file


def ft_detection_seconds(ft_options=None) -> float:
    """Expected rank-death detection latency of the phi-accrual detector.

    Heartbeats arrive every ``heartbeat_interval_s``; after a death the
    silence must grow until phi crosses ``phi_dead``. The detector's
    analytic inverse gives the silence length for a target phi under
    the bootstrap inter-arrival statistics — the same quantity the
    functional :class:`~repro.comms.ft.detector.PhiAccrualDetector`
    exposes (both build it with
    :func:`~repro.comms.ft.detector.detector_for`), so the simulator and
    the wire agree on the model.
    """
    o = ft_options if ft_options is not None else DEFAULT_FT_OPTIONS
    return detector_for(o).detection_latency_s(o.phi_dead)


def ft_rebuild_seconds(
    spec: BenchmarkSpec, nworkers: int, fabric, ft_options=None
) -> float:
    """Cost of one elastic communicator rebuild after a rank death.

    Two serialized control rounds at the coordinator (every survivor's
    JOIN in, every COMMIT out — latency-bound messages on the bounding
    link) plus the re-execution of the interrupted gradient allreduce,
    planned on the shrunken degraded topology (``local_size=1``: the
    rebuilt communicator never claims hierarchical placement).
    """
    if nworkers <= 2:
        return 0.0
    survivors = nworkers - 1
    alpha, _ = fabric.link(True)
    control = 2.0 * (survivors - 1) * alpha
    topo = Topology(world=survivors, local_size=1)
    redo = plan_allreduce(spec.gradient_bytes, topo, DEFAULT_OPTIONS).seconds(
        fabric
    )
    return control + redo


@dataclass
class ResilientSimReport:
    """A resilient simulated run vs its fault-free baseline."""

    machine: str
    benchmark: str
    plan: ScalingPlan
    interval_s: float
    checkpoint_s: float
    job_mtbf_s: float

    base_total_s: float
    base_energy_per_worker_j: float
    total_s: float
    energy_per_worker_j: float

    n_failures: int
    n_checkpoints: int
    checkpoint_time_s: float
    lost_work_s: float
    restart_time_s: float
    phase_seconds: dict
    #: elastic fault tolerance (set when priced with ``ft_options``)
    n_rebuilds: int = 0
    detection_time_s: float = 0.0
    rebuild_time_s: float = 0.0

    @property
    def time_overhead_s(self) -> float:
        return self.total_s - self.base_total_s

    @property
    def time_overhead_pct(self) -> float:
        """Guarded like :func:`~repro.sim.report.improvement_percent`:
        a zero-duration baseline makes the percentage meaningless."""
        if self.base_total_s <= 0:
            raise ValueError(
                f"base total time must be positive, got {self.base_total_s}"
            )
        return self.time_overhead_s / self.base_total_s * 100.0

    @property
    def energy_overhead_pct(self) -> float:
        if self.base_energy_per_worker_j <= 0:
            raise ValueError(
                "base energy per worker must be positive, "
                f"got {self.base_energy_per_worker_j}"
            )
        return (
            (self.energy_per_worker_j - self.base_energy_per_worker_j)
            / self.base_energy_per_worker_j
            * 100.0
        )

    @property
    def total_energy_j(self) -> float:
        return self.energy_per_worker_j * self.plan.nworkers

    def as_row(self) -> dict:
        return {
            "interval_s": round(self.interval_s, 1),
            "ckpts": self.n_checkpoints,
            "failures": self.n_failures,
            "total_s": round(self.total_s, 1),
            "time_overhead_pct": round(self.time_overhead_pct, 2),
            "energy_overhead_pct": round(self.energy_overhead_pct, 2),
            "lost_work_s": round(self.lost_work_s, 1),
        }


class ResilientRunSimulator:
    """Simulate a checkpointed run under an MTBF failure process.

    Reuses :class:`~repro.sim.runner.ScaledRunSimulator` for every
    fault-free cost (loading, broadcast, per-step compute/allreduce,
    evaluation) and replays the training phase through a
    :class:`~repro.sim.engine.PhaseSimulator` armed with the failure
    process: useful work proceeds in checkpoint-interval segments; a
    failure loses the work since the last completed checkpoint and
    pays restart + checkpoint read (+ data reload, by default — at
    paper scale reloading input CSVs dominates restart, which is
    exactly the paper's point about loading).
    """

    def __init__(
        self,
        machine: Union[MachineSpec, str],
        failure_model: FailureModel,
        overlap: bool = True,
    ):
        self.base = ScaledRunSimulator(machine, overlap=overlap)
        self.machine = self.base.machine
        self.failure_model = failure_model

    def run(
        self,
        benchmark: Union[BenchmarkSpec, str],
        plan: ScalingPlan,
        interval_s: Optional[float] = None,
        method: str = "original",
        seed: int = 0,
        ft_options=None,
    ) -> ResilientSimReport:
        """Simulate one resilient run; ``interval_s=None`` → Young/Daly.

        ``ft_options`` (a :class:`repro.comms.FaultToleranceOptions`)
        switches training-phase failures to *elastic* recovery: instead
        of losing the segment and paying restart + reload + checkpoint
        read, the run pays failure detection (idle) + communicator
        rebuild + the re-executed gradient allreduce, and keeps going on
        the survivors. Load-phase failures still restart — there is no
        communicator state to rebuild around before training starts.
        """
        spec = (
            get_benchmark(benchmark).spec if isinstance(benchmark, str) else benchmark
        )
        n = plan.nworkers
        fm = self.failure_model
        base_report = self.base.run(
            benchmark, plan, method=method, seed=seed, keep_profiles=False
        )

        ckpt_write = (
            fm.checkpoint_write_s
            if fm.checkpoint_write_s is not None
            else checkpoint_write_seconds(spec, self.machine)
        )
        ckpt_read = (
            fm.checkpoint_read_s if fm.checkpoint_read_s is not None else ckpt_write
        )
        job_mtbf = fm.job_mtbf_s(n)
        if interval_s is None:
            interval_s = young_daly_interval(ckpt_write, job_mtbf)
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        elastic = ft_options is not None
        if elastic:
            detect_s = ft_detection_seconds(ft_options)
            rebuild_s = ft_rebuild_seconds(
                spec, n, self.machine.fabric, ft_options
            )

        power = self.machine.worker_device_power()
        intensity = self.base.compute.train_intensity(spec, plan.batch_size)
        # training seconds mix compute and allreduce, which draw
        # different power; charge the phase at the time-weighted mean so
        # a fault-free replay matches the baseline's energy exactly
        p_compute = power.compute_w(intensity)
        p_comm = power.communicate_w()
        train_total = base_report.train_s
        if train_total > 0:
            p_train = (
                base_report.train_compute_s * p_compute
                + base_report.train_comm_s * p_comm
            ) / train_total
        else:
            p_train = p_compute

        load_block = (
            (base_report.load_s, "data_loading", float(power.io_w)),
            (
                base_report.broadcast_wait_s,
                "negotiate_broadcast",
                float(power.idle_w),
            ),
            (base_report.broadcast_s, "mpi_broadcast", float(power.io_w)),
        )

        def replay(process) -> tuple[PhaseSimulator, dict]:
            """Replay the run's phases; ``process=None`` → fault-free.

            *Every* phase is failure-exposed, not just training — at
            paper scale the load+broadcast block dominates the run, so
            a failure model that only strikes mid-training would miss
            most of the exposure window.
            """
            sim = PhaseSimulator(n, track_ranks={0}, failure_process=process)
            counters = {
                "failures": 0,
                "checkpoints": 0,
                "lost_work_s": 0.0,
                "checkpoint_time_s": 0.0,
                "restart_time_s": 0.0,
                "restarts": 0,
                "rebuilds": 0,
                "detection_time_s": 0.0,
                "rebuild_time_s": 0.0,
            }

            def run_block(block) -> None:
                """Complete an uncheckpointable phase block, restarting
                from its beginning on every failure inside it."""
                total = sum(d for d, _, _ in block)
                mean_p = (
                    sum(d * p for d, _, p in block) / total
                    if total > 0
                    else float(power.idle_w)
                )
                while True:
                    t_fail = sim.next_failure()
                    if t_fail is None or t_fail >= sim.elapsed_s + total:
                        for d, name, p in block:
                            sim.lockstep(d, name, p)
                        return
                    lost = t_fail - sim.elapsed_s
                    sim.lockstep(lost, "lost_work", mean_p)
                    counters["lost_work_s"] += lost
                    counters["failures"] += 1
                    counters["restarts"] += 1
                    counters["restart_time_s"] += fm.restart_s
                    sim.lockstep(fm.restart_s, "restart_wait", power.idle_w)

            def do_restart(have_checkpoint: bool) -> None:
                counters["restarts"] += 1
                counters["restart_time_s"] += fm.restart_s
                sim.lockstep(fm.restart_s, "restart_wait", power.idle_w)
                if fm.reload_on_restart:
                    start = sim.elapsed_s
                    run_block(load_block)
                    counters["restart_time_s"] += sim.elapsed_s - start
                if have_checkpoint:
                    counters["restart_time_s"] += ckpt_read
                    sim.lockstep(ckpt_read, "checkpoint_read", power.io_w)

            run_block(load_block)

            # training in checkpoint-interval segments, under failures
            done = 0.0  # useful work completed *and* checkpointed
            while done < train_total:
                segment = min(interval_s, train_total - done)
                is_final = done + segment >= train_total
                ckpt_cost = 0.0 if is_final else ckpt_write
                t_fail = sim.next_failure()
                window_end = sim.elapsed_s + segment + ckpt_cost
                if t_fail is not None and t_fail < window_end:
                    counters["failures"] += 1
                    if elastic:
                        # elastic recovery keeps the progress: survivors
                        # stall through detection, rebuild the
                        # communicator, and re-execute the interrupted
                        # reduction — no segment loss, no restart
                        useful = max(0.0, min(t_fail - sim.elapsed_s, segment))
                        if useful > 0:
                            sim.lockstep(useful, "train", p_train)
                            done += useful
                        counters["rebuilds"] += 1
                        counters["detection_time_s"] += detect_s
                        sim.lockstep(detect_s, "ft_detection", power.idle_w)
                        counters["rebuild_time_s"] += rebuild_s
                        sim.lockstep(rebuild_s, "communicator_rebuild", p_comm)
                        continue
                    # everything since the last checkpoint is lost
                    lost = t_fail - sim.elapsed_s
                    sim.lockstep(lost, "lost_work", p_train)
                    counters["lost_work_s"] += lost
                    do_restart(have_checkpoint=counters["checkpoints"] > 0)
                    continue
                sim.lockstep(segment, "train", p_train)
                if ckpt_cost > 0:
                    sim.lockstep(ckpt_cost, "checkpoint_write", power.io_w)
                    counters["checkpoint_time_s"] += ckpt_cost
                    counters["checkpoints"] += 1
                done += segment

            sim.lockstep(
                base_report.eval_s, "evaluate", power.compute_w(intensity * 0.8)
            )
            return sim, counters

        # fault-free, checkpoint-free baseline: replay without failures
        # and strip the checkpoint writes back out, so overhead isolates
        # exactly what resilience adds (writes + lost work + restarts)
        base_sim, base_counters = replay(None)
        sim, counters = replay(fm.process(n, seed=seed))
        restart_time_s = counters["restart_time_s"]
        return ResilientSimReport(
            machine=self.machine.name,
            benchmark=spec.name,
            plan=plan,
            interval_s=float(interval_s),
            checkpoint_s=float(ckpt_write),
            job_mtbf_s=float(job_mtbf),
            base_total_s=base_sim.elapsed_s - base_counters["checkpoint_time_s"],
            base_energy_per_worker_j=(
                base_sim.mean_energy_j()
                - base_counters["checkpoint_time_s"] * float(power.io_w)
            ),
            total_s=sim.elapsed_s,
            energy_per_worker_j=sim.mean_energy_j(),
            n_failures=counters["failures"],
            n_checkpoints=counters["checkpoints"],
            checkpoint_time_s=counters["checkpoint_time_s"],
            lost_work_s=counters["lost_work_s"],
            restart_time_s=restart_time_s,
            phase_seconds=sim.phase_report(),
            n_rebuilds=counters["rebuilds"],
            detection_time_s=counters["detection_time_s"],
            rebuild_time_s=counters["rebuild_time_s"],
        )


def simulate_resilient_run(
    benchmark: Union[BenchmarkSpec, str],
    machine: Union[MachineSpec, str],
    plan: ScalingPlan,
    failure_model: FailureModel,
    interval_s: Optional[float] = None,
    seed: int = 0,
    ft_options=None,
) -> ResilientSimReport:
    """One-shot convenience wrapper around :class:`ResilientRunSimulator`."""
    return ResilientRunSimulator(machine, failure_model).run(
        benchmark, plan, interval_s=interval_s, seed=seed, ft_options=ft_options
    )
