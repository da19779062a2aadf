"""Grep-lint: the message path, the serving front-end, the epoch
prefetcher and the background worker do not poll.

``repro.mpi`` waits on arrival conditions, ``serve.server``'s event
loop sleeps in one ``recv_any``, ``ingest.prefetch`` waits on its
epoch's job and a ``repro.worker.Worker`` blocks in its queue's
``get``; a ``time.sleep`` or a ``*_POLL*``
constant in these files is how a sleep-and-look-again loop comes back
(one held ``serve_p1b2_open`` at 1 batch per 5 ms for eleven PRs). The
suite only catches a poll a test happens to time, so this scans the
text.

Exactly two sleeps are allowed, both in the load generator, where the
sleep *is* the behaviour — an open loop owes a request at its arrival
offset, a closed-loop client thinks between requests — and each must
say so in a comment right above it.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

SCANNED = sorted([
    *(SRC / "mpi").glob("*.py"), *(SRC / "ps").glob("*.py"), SRC / "serve" / "server.py",
    SRC / "ingest" / "prefetch.py", SRC / "worker.py",
])

SLEEP = re.compile(r"\btime\.sleep\(")
POLL_CONSTANT = re.compile(r"\b\w*_POLL\w*\b")
DEF = re.compile(r"^\s*def (\w+)\(", re.MULTILINE)

#: (file relative to src/repro, enclosing function) of each allowed sleep
ALLOWED_SLEEPS = [
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
            "serve/server.py", "ingest/prefetch.py", "worker.py"} <= names


def test_only_the_load_generator_sleeps():
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
    assert not offenders, "poll constant on the message path:\n" + "\n".join(offenders)
