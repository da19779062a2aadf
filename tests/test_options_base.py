"""The shared options-family machinery in :mod:`repro.options`.

Every frozen options class in the tree (TrainOptions, CollectiveOptions,
LoaderConfig, ServeOptions) is rebased on these helpers, so their
message formats are contract: a change here would silently alter four
public APIs' error text at once.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

import pytest

from repro.options import (
    FrozenOptions,
    require_choice,
    require_in_interval,
    require_instance,
    require_non_negative,
    require_positive,
)


@dataclass(frozen=True, kw_only=True)
class Knobs(FrozenOptions):
    depth: int = 4
    rate: float = 0.5


class TestFrozenOptions:
    def test_evolve_returns_modified_copy(self):
        base = Knobs()
        changed = base.evolve(depth=9)
        assert changed.depth == 9 and changed.rate == base.rate
        assert base.depth == 4  # original untouched

    def test_instances_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            Knobs().depth = 1

    def test_evolve_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            Knobs().evolve(bogus=1)


class TestValidators:
    def test_require_positive(self):
        require_positive("depth", 1)
        with pytest.raises(ValueError, match=r"^depth must be positive, got 0$"):
            require_positive("depth", 0)

    def test_require_non_negative(self):
        require_non_negative("lag", 0)
        with pytest.raises(ValueError, match=r"^lag must be non-negative, got -1$"):
            require_non_negative("lag", -1)

    def test_interval_closed_brackets(self):
        require_in_interval("depth", 16, 1, 64)
        with pytest.raises(ValueError, match=r"depth must be in \[1, 64\], got 0"):
            require_in_interval("depth", 0, 1, 64)

    def test_interval_open_low_bracket(self):
        # the "(0, 1]" shape ServeOptions.assemble_fraction uses
        with pytest.raises(ValueError, match=r"ratio must be in \(0, 1\], got 0"):
            require_in_interval("ratio", 0, 0, 1, open_low=True)
        require_in_interval("ratio", 1, 0, 1, open_low=True)

    def test_interval_open_high_bracket(self):
        with pytest.raises(ValueError, match=r"f must be in \[0, 1\), got 1"):
            require_in_interval("f", 1, 0, 1, open_high=True)

    def test_require_choice(self):
        require_choice("mode", "a", ("a", "b"))
        with pytest.raises(ValueError, match=r"unknown mode 'c'; known: \('a', 'b'\)"):
            require_choice("mode", "c", ("a", "b"))

    def test_require_instance(self):
        require_instance("opts", None, Knobs)
        require_instance("opts", Knobs(), Knobs)
        with pytest.raises(
            ValueError, match=r"opts must be a Knobs or None, got int"
        ):
            require_instance("opts", 3, Knobs)

