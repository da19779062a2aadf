"""The shared machinery of the frozen options family.

Every subsystem exposes exactly one keyword-only frozen dataclass as
its public knob — :class:`repro.train.TrainOptions`,
:class:`repro.comms.CollectiveOptions`,
:class:`repro.serve.ServeOptions` — plus the frozen (positional-
friendly) :class:`repro.ingest.LoaderConfig`. Before this module each
of them carried its own copy of the same two pieces:

- an ``evolve(**changes)`` helper (frozen-friendly ``dataclasses.replace``),
- construction-time validation boilerplate with hand-rolled messages.

Both now live here. The validators reproduce the family's
established message formats byte-for-byte, so rebasing an existing
options class on them is invisible to callers and tests.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

__all__ = [
    "FrozenOptions",
    "require_positive",
    "require_non_negative",
    "require_in_interval",
    "require_choice",
    "require_instance",
]


class FrozenOptions:
    """Mixin giving a frozen dataclass the family's ``evolve`` helper."""

    __slots__ = ()

    def evolve(self, **changes):
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)


# -- validation helpers -----------------------------------------------------
def require_positive(name: str, value) -> None:
    """Raise unless ``value > 0`` (the family's standard message)."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def require_non_negative(name: str, value) -> None:
    """Raise unless ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def require_in_interval(
    name: str,
    value,
    low,
    high,
    *,
    open_low: bool = False,
    open_high: bool = False,
) -> None:
    """Raise unless ``value`` lies in the interval; brackets follow
    openness, e.g. ``(0, 1]`` or ``[1, 16]`` — the exact message shape
    the options family has always used."""
    low_ok = value > low if open_low else value >= low
    high_ok = value < high if open_high else value <= high
    if not (low_ok and high_ok):
        lo = "(" if open_low else "["
        hi = ")" if open_high else "]"
        raise ValueError(
            f"{name} must be in {lo}{low}, {high}{hi}, got {value}"
        )


def require_choice(name: str, value, choices: Sequence) -> None:
    """Raise unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; known: {choices}")


def require_instance(name: str, value, cls: type) -> None:
    """Raise unless ``value`` is None or an instance of ``cls``."""
    if value is not None and not isinstance(value, cls):
        raise ValueError(
            f"{name} must be a {cls.__name__} or None, "
            f"got {type(value).__name__}"
        )

