"""The cold ``cached`` parse on two cores (:mod:`repro.ingest.split`).

A forked child casts the second half of the file into a shared mapping
while the parent casts the first; the parent rebuilds the serial
``chunked`` parse's pieces. The split forks only while its process has
one OS thread, so each case runs in a fresh interpreter
(``split_cases.py``) with the BLAS thread counts at 1, the size
threshold at 0 and two cores assumed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ingest import LoaderConfig, split
from tests.ingest.split_cases import CASES

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
    reason="the split needs fork and /proc/self/task",
)


def run_case(name: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-W", "error::ResourceWarning",
         "-m", "tests.ingest.split_cases", name, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("case", sorted(CASES))
def test_split_case(case, mixed_csv):
    run_case(case, mixed_csv)


def test_small_files_and_low_memory_parse_serially(mixed_csv):
    # no fork is tried below the threshold, or on the low-memory engine
    assert os.path.getsize(mixed_csv) < split.MIN_BYTES
    assert split.parse_pieces_split(mixed_csv, LoaderConfig(method="cached")) is None
    assert split.parse_pieces_split(
        mixed_csv, LoaderConfig(method="cached", low_memory=True)
    ) is None
