"""The Supervisor: schedule trials, collect results, survive failures.

The runner callable receives ``(config, trial_seed)`` and returns a
metrics dict — typically wrapping
:func:`repro.core.parallel.run_parallel_benchmark` (real training) or
:func:`repro.sim.simulate_run` (paper-scale cost). Failed trials are
recorded, not fatal: a hyperparameter search must outlive diverging or
OOM-ing configurations (the paper's P1B3 linear-scaling failures are
exactly such trials).
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Sequence

from repro.resilience import RetryPolicy
from repro.supervisor.db import ResultsDB, TrialRecord

__all__ = ["Supervisor"]

Runner = Callable[[Dict[str, Any], int], Dict[str, float]]


def _format_error(exc: BaseException) -> str:
    """``Type: message`` summary line followed by the full traceback.

    The summary line first keeps substring checks on the message cheap;
    the traceback below it is what makes a failed trial *debuggable*
    from the results DB alone (a search that ran overnight must not
    require a rerun just to learn where the exception came from).
    """
    summary = f"{type(exc).__name__}: {exc}"
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).rstrip()
    return f"{summary}\n{tb}"


class Supervisor:
    """Run a search strategy's configurations through a runner.

    ``max_retries`` (opt-in, default 0) re-runs a *failed* trial up to
    that many extra times with capped exponential backoff before
    recording it as failed — the standard defense against transient
    faults (a flaky node, an injected crash) wasting a whole search
    slot. Deterministic failures simply fail ``max_retries + 1`` times,
    so the default stays 0 to avoid tripling the cost of diverging
    configurations.
    """

    def __init__(
        self,
        runner: Runner,
        max_parallel: int = 1,
        base_seed: int = 0,
        verbose: bool = False,
        max_retries: int = 0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_parallel <= 0:
            raise ValueError(f"max_parallel must be positive, got {max_parallel}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        self.runner = runner
        self.max_parallel = int(max_parallel)
        self.base_seed = int(base_seed)
        self.verbose = bool(verbose)
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(max_retries=max_retries)
        )
        self._sleep = sleep

    def _run_one(self, trial_id: int, config: Dict[str, Any]) -> TrialRecord:
        t0 = time.perf_counter()
        record: TrialRecord
        for attempt in range(self.retry.max_retries + 1):
            try:
                metrics = self.runner(dict(config), self.base_seed + trial_id)
                if not isinstance(metrics, dict):
                    raise TypeError(
                        f"runner must return a metrics dict, got {type(metrics)!r}"
                    )
                record = TrialRecord(
                    trial_id=trial_id,
                    config=config,
                    metrics={k: float(v) for k, v in metrics.items()},
                    wall_seconds=time.perf_counter() - t0,
                    attempts=attempt + 1,
                )
                break
            except Exception as exc:  # noqa: BLE001 — searches must survive trials
                record = TrialRecord(
                    trial_id=trial_id,
                    config=config,
                    metrics={},
                    status="failed",
                    error=_format_error(exc),
                    wall_seconds=time.perf_counter() - t0,
                    attempts=attempt + 1,
                )
                if self.verbose:
                    traceback.print_exc()
                if attempt < self.retry.max_retries:
                    self._sleep(self.retry.delay_s(attempt))
        if self.verbose:
            print(f"[trial {trial_id}] {record.status} {config} -> {record.metrics}")
        return record

    def run(
        self,
        strategy,
        db: Optional[ResultsDB] = None,
    ) -> ResultsDB:
        """Evaluate every configuration of ``strategy``; returns the DB.

        ``strategy`` is anything with ``configurations()`` (GridSearch,
        RandomSearch, or a plain list wrapped by :meth:`run_configs`).
        """
        return self.run_configs(strategy.configurations(), db=db)

    def run_configs(
        self,
        configs: Sequence[Dict[str, Any]],
        db: Optional[ResultsDB] = None,
    ) -> ResultsDB:
        db = db if db is not None else ResultsDB()
        start = len(db)
        indexed = list(enumerate(configs, start=start))
        if self.max_parallel == 1:
            records = [self._run_one(i, c) for i, c in indexed]
        else:
            with ThreadPoolExecutor(max_workers=self.max_parallel) as pool:
                records = list(
                    pool.map(lambda ic: self._run_one(*ic), indexed)
                )
        for record in records:
            db.add(record)
        return db
