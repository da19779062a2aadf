"""Grep-lint: nothing in ``src/repro`` polls.

``repro.mpi`` waits on arrival conditions, ``serve.server``'s event
loop sleeps in one ``recv_any``, ``ingest.prefetch`` waits on its
epoch's job and a ``repro.worker.Worker`` blocks in its queue's
``get``; a ``time.sleep`` or a ``*_POLL*`` constant is how a
sleep-and-look-again loop comes back (one held ``serve_p1b2_open`` at
1 batch per 5 ms for eleven PRs). The suite only catches a poll a test
happens to time, so this scans the text of every module.

A sleep is allowed only where the sleep *is* the behaviour, a
schedule, and each must say so in a comment right above it: the load
generator's two (an open loop owes a request at its arrival offset, a
closed-loop client thinks between requests), the engine's emulated
wire time per chunk, a rank's injected load skew, and an injected
straggler or I/O stall.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

SCANNED = sorted(SRC.rglob("*.py"))

SLEEP = re.compile(r"\btime\.sleep\(")
POLL_CONSTANT = re.compile(r"\b\w*_POLL\w*\b")
DEF = re.compile(r"^\s*def (\w+)\(", re.MULTILINE)

#: (file relative to src/repro, enclosing function) of each allowed sleep
ALLOWED_SLEEPS = [
    ("candle/pipeline.py", "run_rank"),
    ("comms/engine.py", "_execute"),
    ("resilience/faults.py", "_stall"),
    ("serve/server.py", "_run_open"),
    ("serve/server.py", "_run_closed_client"),
]
WHY = "a schedule, not a poll"


def sleeps():
    """Every ``time.sleep(`` in scope: (file, function, lines just above)."""
    found = []
    for path in SCANNED:
        text = path.read_text()
        for match in SLEEP.finditer(text):
            defs = [m.group(1) for m in DEF.finditer(text, 0, match.start())]
            above = text[: match.start()].splitlines()[-4:]
            found.append(
                (path.relative_to(SRC).as_posix(), defs[-1] if defs else "", above)
            )
    return found


def test_scan_covers_the_message_path():
    names = {p.relative_to(SRC).as_posix() for p in SCANNED}
    assert {"mpi/communicator.py", "mpi/runtime.py", "ps/rpc.py",
            "serve/server.py", "ingest/prefetch.py", "worker.py",
            "comms/engine.py", "resilience/faults.py"} <= names


def test_only_schedules_sleep():
    assert sorted((f, fn) for f, fn, _ in sleeps()) == sorted(ALLOWED_SLEEPS)


def test_each_allowed_sleep_says_why():
    for file, function, above in sleeps():
        assert any(WHY in line and line.lstrip().startswith("#") for line in above), (
            f"{file}:{function}: the time.sleep needs a comment containing {WHY!r}"
        )


def test_no_poll_constants():
    offenders = []
    for path in SCANNED:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if POLL_CONSTANT.search(line):
                offenders.append(f"{path.relative_to(SRC).as_posix()}:{number}: {line.strip()}")
    assert not offenders, "poll constant in src/repro:\n" + "\n".join(offenders)
