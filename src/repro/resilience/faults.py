"""Deterministic fault injection: plans, injectors, injected errors.

The paper's §7 leaves fault tolerance as future work; at 3,072 Theta
ranks a multi-hour job *will* see failures, so the recovery machinery
needs a way to rehearse them. A :class:`FaultPlan` is a seedable,
fully-reproducible schedule of faults — rank crashes at a given epoch
or step, straggler slowdowns, I/O stalls, transient collective
failures — and a :class:`FaultInjector` is the runtime object that
fires them at well-defined hook points:

- ``on_rank_start`` — called by :func:`repro.mpi.run_spmd` for every
  rank before the SPMD function runs (start-up crashes, I/O stalls);
- ``on_epoch_begin`` / ``on_epoch_end`` / ``on_step`` — called by
  :class:`repro.hvd.callbacks.FaultInjectionCallback` during real
  training.

Determinism contract: the same plan applied to the same run fires the
same faults in the same places. Transient faults fire exactly once
(the retried attempt sails past them); ``permanent=True`` crashes fire
on *every* attempt that still schedules the dead rank, which is what
forces :func:`repro.resilience.recovery.run_resilient_benchmark` to
shrink the world.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "TransientCollectiveError",
]

#: the process-level fault taxonomy: process death, slow rank, stalled
#: filesystem, and a failed collective (the NCCL/MPI "unhandled system
#: error" class)
FAULT_KINDS = ("crash", "straggler", "io_stall", "collective")


class InjectedFault(RuntimeError):
    """Base class for every injector-raised error."""


class TransientCollectiveError(InjectedFault):
    """A collective operation failed transiently (injected)."""


class InjectedCrash(InjectedFault):
    """A rank process died (injected)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``epoch=None`` means the fault fires at rank start (before the SPMD
    function body); ``step`` additionally narrows an epoch-level fault
    to one training batch. ``delay_s`` is the injected sleep for
    ``straggler``/``io_stall`` faults. ``permanent`` marks a crash as
    a dead-for-good rank: it re-fires on every retry until the rank is
    removed from the world.
    """

    kind: str
    rank: int
    epoch: Optional[int] = None
    step: Optional[int] = None
    delay_s: float = 0.0
    permanent: bool = False

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        if self.step is not None and self.epoch is None:
            raise ValueError("a step-level fault needs an epoch")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.permanent and self.kind != "crash":
            raise ValueError("only crash faults can be permanent")

    def describe(self) -> str:
        where = (
            "rank start"
            if self.epoch is None
            else f"epoch {self.epoch}" + (f" step {self.step}" if self.step is not None else "")
        )
        extra = " (permanent)" if self.permanent else ""
        return f"{self.kind}@rank{self.rank}/{where}{extra}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-stamped schedule of faults.

    The seed is not consumed by the plan itself (the specs are already
    concrete); it records provenance so a run report can say exactly
    which random draw produced this schedule, and it feeds the
    reproducibility check in the tests: ``FaultPlan.random(...)`` with
    the same arguments is identical, spec for spec.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def for_rank(self, rank: int) -> list[FaultSpec]:
        return [s for s in self.specs if s.rank == rank]

    def describe(self) -> str:
        if not self.specs:
            return f"<FaultPlan seed={self.seed}: no faults>"
        body = ", ".join(s.describe() for s in self.specs)
        return f"<FaultPlan seed={self.seed}: {body}>"

    @classmethod
    def single_crash(
        cls, rank: int, epoch: int, permanent: bool = False, seed: int = 0
    ) -> "FaultPlan":
        """The canonical test plan: one rank dies at one epoch."""
        return cls(
            specs=(FaultSpec("crash", rank=rank, epoch=epoch, permanent=permanent),),
            seed=seed,
        )

    @classmethod
    def random(
        cls,
        nranks: int,
        epochs: int,
        n_faults: int,
        seed: int = 0,
        kinds: Sequence[str] = FAULT_KINDS,
        max_delay_s: float = 0.05,
        permanent_fraction: float = 0.0,
    ) -> "FaultPlan":
        """Draw a reproducible schedule: same arguments ⇒ same plan."""
        if nranks <= 0 or epochs <= 0:
            raise ValueError("nranks and epochs must be positive")
        if n_faults < 0:
            raise ValueError(f"n_faults must be non-negative, got {n_faults}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(n_faults):
            kind = str(rng.choice(list(kinds)))
            rank = int(rng.integers(0, nranks))
            epoch = int(rng.integers(0, epochs))
            delay = float(rng.uniform(0.0, max_delay_s)) if kind in ("straggler", "io_stall") else 0.0
            permanent = bool(kind == "crash" and rng.random() < permanent_fraction)
            specs.append(
                FaultSpec(kind, rank=rank, epoch=epoch, delay_s=delay, permanent=permanent)
            )
        return cls(specs=tuple(specs), seed=seed)


def _stall(spec: FaultSpec) -> None:
    """Hold the calling rank for a straggler's or an I/O stall's delay."""
    if spec.delay_s > 0:
        # a schedule, not a poll: the injected fault is this delay
        time.sleep(spec.delay_s)


@dataclass
class FiredFault:
    """One injector firing, for the reproducibility record."""

    attempt: int
    spec: FaultSpec

    def key(self) -> tuple:
        return (
            self.attempt, self.spec.kind, self.spec.rank,
            self.spec.epoch, self.spec.step,
        )


class FaultInjector:
    """Runtime fault firing for one (possibly retried) job.

    Thread-safe: SPMD ranks are threads, and several can hit their
    hooks concurrently. One injector spans every retry attempt of a
    job — call :meth:`next_attempt` between attempts so transient
    faults stay consumed and permanent ones keep firing.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.attempt = 0
        self._lock = threading.Lock()
        self._fired: set[int] = set()  # indices of consumed transient specs
        self.history: list[FiredFault] = []
        self.dead_ranks: set[int] = set()

    # -- lifecycle ---------------------------------------------------------
    def next_attempt(self) -> int:
        """Advance the attempt counter (recovery calls this per retry)."""
        with self._lock:
            self.attempt += 1
            return self.attempt

    def remap_dead_ranks(self, survivors: Sequence[int]) -> None:
        """After an elastic shrink, old ranks are renumbered 0..n-1.

        ``survivors`` lists the *old* rank ids that remain, in new-rank
        order; pending faults addressed to a surviving old rank follow
        it to its new id, and faults on dead ranks are dropped.
        """
        mapping = {old: new for new, old in enumerate(survivors)}
        with self._lock:
            remapped = []
            kept_indices = []
            for i, spec in enumerate(self.plan.specs):
                if spec.rank in mapping:
                    remapped.append(replace(spec, rank=mapping[spec.rank]))
                    kept_indices.append(i)
            self._fired = {kept_indices.index(i) for i in self._fired if i in kept_indices}
            self.plan = FaultPlan(specs=tuple(remapped), seed=self.plan.seed)
            self.dead_ranks = set()

    # -- firing ------------------------------------------------------------
    def _due(self, rank: int, epoch: Optional[int], step: Optional[int]) -> list[tuple[int, FaultSpec]]:
        due = []
        for i, spec in enumerate(self.plan.specs):
            if spec.rank != rank or spec.epoch != epoch or spec.step != step:
                continue
            if i in self._fired and not spec.permanent:
                continue
            due.append((i, spec))
        return due

    def _fire(self, rank: int, epoch: Optional[int], step: Optional[int]) -> None:
        with self._lock:
            due = self._due(rank, epoch, step)
            for i, spec in due:
                self._fired.add(i)
                self.history.append(FiredFault(self.attempt, spec))
                if spec.kind == "crash" and spec.permanent:
                    self.dead_ranks.add(rank)
        # sleeps and raises happen outside the lock
        for _, spec in due:
            if spec.kind in ("straggler", "io_stall"):
                _stall(spec)
            elif spec.kind == "collective":
                raise TransientCollectiveError(
                    f"injected collective failure: {spec.describe()}"
                )
            else:  # crash
                raise InjectedCrash(f"injected crash: {spec.describe()}")

    def on_rank_start(self, rank: int) -> None:
        """Hook for :func:`repro.mpi.run_spmd` — fires start-time faults."""
        self._fire(rank, None, None)

    def on_epoch_begin(self, rank: int, epoch: int) -> None:
        """Epoch-level stalls/stragglers fire before the epoch's batches."""
        with self._lock:
            due = [
                (i, s)
                for i, s in self._due(rank, epoch, None)
                if s.kind in ("straggler", "io_stall")
            ]
            for i, spec in due:
                self._fired.add(i)
                self.history.append(FiredFault(self.attempt, spec))
        for _, spec in due:
            _stall(spec)

    def on_epoch_end(self, rank: int, epoch: int) -> None:
        """Epoch-level crashes/collective failures fire after the epoch."""
        with self._lock:
            due = [
                (i, s)
                for i, s in self._due(rank, epoch, None)
                if s.kind in ("crash", "collective")
            ]
            for i, spec in due:
                self._fired.add(i)
                self.history.append(FiredFault(self.attempt, spec))
                if spec.kind == "crash" and spec.permanent:
                    self.dead_ranks.add(rank)
        for _, spec in due:
            if spec.kind == "collective":
                raise TransientCollectiveError(
                    f"injected collective failure: {spec.describe()}"
                )
            raise InjectedCrash(f"injected crash: {spec.describe()}")

    def on_step(self, rank: int, epoch: int, step: int) -> None:
        """Batch-level faults fire at the start of that batch."""
        self._fire(rank, epoch, step)

    # -- record ------------------------------------------------------------
    def fired_keys(self) -> list[tuple]:
        """Deterministic record of what fired (for reproducibility tests)."""
        with self._lock:
            return sorted(f.key() for f in self.history)

    def __repr__(self):
        return (
            f"<FaultInjector attempt={self.attempt} plan={len(self.plan)} faults "
            f"fired={len(self.history)} dead={sorted(self.dead_ranks)}>"
        )
