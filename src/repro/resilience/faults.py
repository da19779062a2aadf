"""Deterministic fault injection: plans, injectors, injected errors.

The paper's §7 leaves fault tolerance as future work; at 3,072 Theta
ranks a multi-hour job *will* see failures, so the recovery machinery
needs a way to rehearse them. A :class:`FaultPlan` is a seedable,
fully-reproducible schedule of faults — rank crashes at a given epoch
or step, stalls (a slow rank or a stalled filesystem), transient
collective failures — and a :class:`FaultInjector` is the runtime
object that fires them at well-defined hook points:

- ``on_rank_start`` — called by :func:`repro.mpi.run_spmd` for every
  rank before the SPMD function runs (start-up crashes and stalls);
- ``on_epoch_begin`` / ``on_epoch_end`` / ``on_step`` — called by
  :class:`repro.hvd.callbacks.FaultInjectionCallback` during real
  training.

Determinism contract: the same plan applied to the same run fires the
same faults in the same places. Every fault fires exactly once: the
retried attempt sails past it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

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

#: the process-level fault taxonomy: process death, a stall (a slow rank
#: or a stalled filesystem: the rank sleeps), and a failed collective
#: (the NCCL/MPI "unhandled system error" class)
FAULT_KINDS = ("crash", "stall", "collective")

#: the longest stall :meth:`FaultPlan.random` draws
MAX_RANDOM_STALL_S = 0.05


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
    to one training batch. ``delay_s`` is the injected sleep of a
    ``stall``.
    """

    kind: str
    rank: int
    epoch: Optional[int] = None
    step: Optional[int] = None
    delay_s: float = 0.0

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

    def describe(self) -> str:
        where = (
            "rank start"
            if self.epoch is None
            else f"epoch {self.epoch}" + (f" step {self.step}" if self.step is not None else "")
        )
        return f"{self.kind}@rank{self.rank}/{where}"


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

    def describe(self) -> str:
        if not self.specs:
            return f"<FaultPlan seed={self.seed}: no faults>"
        body = ", ".join(s.describe() for s in self.specs)
        return f"<FaultPlan seed={self.seed}: {body}>"

    @classmethod
    def single_crash(cls, rank: int, epoch: int, seed: int = 0) -> "FaultPlan":
        """The canonical test plan: one rank dies at one epoch."""
        return cls(specs=(FaultSpec("crash", rank=rank, epoch=epoch),), seed=seed)

    @classmethod
    def random(
        cls, nranks: int, epochs: int, n_faults: int, seed: int = 0
    ) -> "FaultPlan":
        """Draw a reproducible schedule: same arguments ⇒ same plan."""
        if nranks <= 0 or epochs <= 0:
            raise ValueError("nranks and epochs must be positive")
        if n_faults < 0:
            raise ValueError(f"n_faults must be non-negative, got {n_faults}")
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(n_faults):
            kind = str(rng.choice(list(FAULT_KINDS)))
            rank = int(rng.integers(0, nranks))
            epoch = int(rng.integers(0, epochs))
            delay = float(rng.uniform(0.0, MAX_RANDOM_STALL_S)) if kind == "stall" else 0.0
            specs.append(FaultSpec(kind, rank=rank, epoch=epoch, delay_s=delay))
        return cls(specs=tuple(specs), seed=seed)


def _stall(spec: FaultSpec) -> None:
    """Hold the calling rank for a stall's delay."""
    if spec.delay_s > 0:
        # a schedule, not a poll: the injected fault is this delay
        time.sleep(spec.delay_s)


@dataclass
class FiredFault:
    """One injector firing, for the reproducibility record."""

    attempt: int
    spec: FaultSpec


class FaultInjector:
    """Runtime fault firing for one (possibly retried) job.

    Thread-safe: SPMD ranks are threads, and several can hit their
    hooks concurrently. One injector spans every retry attempt of a
    job — call :meth:`next_attempt` between attempts so fired faults
    stay consumed.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.attempt = 0
        self._lock = threading.Lock()
        self._fired: set[int] = set()  # indices of consumed specs
        self.history: list[FiredFault] = []

    def next_attempt(self) -> int:
        """Advance the attempt counter (recovery calls this per retry)."""
        with self._lock:
            self.attempt += 1
            return self.attempt

    def _fire(
        self, rank: int, epoch: Optional[int], step: Optional[int],
        kinds: tuple = FAULT_KINDS,
    ) -> None:
        """Consume and fire the not-yet-fired specs of ``kinds`` due here."""
        with self._lock:
            due = [
                (i, spec)
                for i, spec in enumerate(self.plan.specs)
                if (spec.rank, spec.epoch, spec.step) == (rank, epoch, step)
                and spec.kind in kinds
                and i not in self._fired
            ]
            for i, spec in due:
                self._fired.add(i)
                self.history.append(FiredFault(self.attempt, spec))
        # sleeps and raises happen outside the lock
        for _, spec in due:
            if spec.kind == "stall":
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
        """Epoch-level stalls fire before the epoch's batches."""
        self._fire(rank, epoch, None, ("stall",))

    def on_epoch_end(self, rank: int, epoch: int) -> None:
        """Epoch-level crashes/collective failures fire after the epoch."""
        self._fire(rank, epoch, None, ("crash", "collective"))

    def on_step(self, rank: int, epoch: int, step: int) -> None:
        """Batch-level faults fire at the start of that batch."""
        self._fire(rank, epoch, step)

    def __repr__(self):
        return (
            f"<FaultInjector attempt={self.attempt} plan={len(self.plan)} faults "
            f"fired={len(self.history)}>"
        )
