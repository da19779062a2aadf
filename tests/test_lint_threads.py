"""Grep-lint: every background thread in ``src/`` is a ``Worker``'s.

:class:`repro.worker.Worker` is the one lifecycle for work that runs
beside the critical path: one start, one error hand-off (``Job.wait``),
one close that joins, one rule for a forked child. A ``threading.Thread``
anywhere else — called, or subclassed — is how a second lifecycle, with
its own give-up rule, comes back, so this scans the text. A
``concurrent.futures`` pool starts threads (or processes) too, so it
counts the same.

Three other sites are allowed. ``repro.mpi.runtime.run_spmd`` starts one
*non-daemon* thread per rank and joins them all before returning: a rank
is a peer of the caller, not work beside it, and making the daemon
Worker start non-daemon threads would need a mode flag on it. The two
pools are fan-outs scoped by a ``with`` block, so every thread or
process they start is joined before the call that opened them returns.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

THREAD = re.compile(r"\b(threading\.Thread|ThreadPoolExecutor|ProcessPoolExecutor)\b")

#: files (relative to src/repro) that may start a thread, and why
ALLOWED = {
    "worker.py": "the Worker itself",
    "mpi/runtime.py": "run_spmd's non-daemon rank threads, joined before it returns",
    "frame/dask_like.py": "the partition fan-out, a with-scoped pool joined before read returns",
    "ingest/parallel.py": (
        "the span-parallel reader's with-scoped thread or process pool, "
        "kept while ROADMAP weighs deleting the process-pool loader"
    ),
}


def thread_sites():
    """(file, line number) of every thread or pool under src/repro."""
    return [
        (path.relative_to(SRC).as_posix(), number)
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if THREAD.search(line)
    ]


def test_threads_start_only_in_the_worker_and_the_rank_runtime():
    offenders = [f"{f}:{n}" for f, n in thread_sites() if f not in ALLOWED]
    assert not offenders, "a thread outside repro.worker:\n" + "\n".join(offenders)


def test_each_allowed_file_still_starts_one():
    # an allowance with nothing left to allow goes with it
    assert sorted({f for f, _ in thread_sites()}) == sorted(ALLOWED)
