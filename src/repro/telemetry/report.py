"""Fixed-width table/series rendering for reports.

The telemetry summary, the CLIs and each experiment module print rows
or series (an experiment prints what its paper table or figure
reports); these helpers keep the formatting uniform.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping], title: str = "") -> str:
    """Render dict rows as an aligned text table (shared key order)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    keys = list(rows[0].keys())
    for r in rows[1:]:
        for k in r:
            if k not in keys:
                keys.append(k)
    cells = [[_fmt(r.get(k, "")) for k in keys] for r in rows]
    widths = [
        max(len(str(k)), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(k).ljust(w) for k, w in zip(keys, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for c in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(c, widths)))
    return "\n".join(lines)
