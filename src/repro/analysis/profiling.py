"""cProfile hot spots (the paper profiles with Python's cProfile, §4).

:func:`profile_callable` wraps cProfile and returns the top hot spots,
which is how the paper identified ``pandas.read_csv`` as the bottleneck
in the first place. Phases are timed with :class:`repro.telemetry.Tracer`
spans.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable

__all__ = ["profile_callable"]


def profile_callable(fn: Callable, *args, top: int = 10, **kwargs):
    """Run ``fn`` under cProfile; returns (result, top-functions text)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    return result, buf.getvalue()
