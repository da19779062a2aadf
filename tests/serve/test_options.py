"""ServeOptions: validation, evolve, and derived budgets."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.options import FrozenOptions
from repro.serve import ADMISSION_POLICIES, DEFAULT_SERVE_OPTIONS, ServeOptions
from repro.serve.options import ASSEMBLE_FRACTION


class TestConstruction:
    def test_defaults_are_the_module_default(self):
        assert ServeOptions() == DEFAULT_SERVE_OPTIONS

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            ServeOptions(64)  # noqa: the point is positional rejection

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            ServeOptions().max_batch = 1

    def test_is_family_member(self):
        assert isinstance(ServeOptions(), FrozenOptions)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_batch": 0}, "max_batch must be positive, got 0"),
            ({"deadline_ms": 0}, "deadline_ms must be positive, got 0"),
            ({"deadline_ms": -5.0}, "deadline_ms must be positive, got -5.0"),
            ({"queue_depth": 0}, "queue_depth must be positive, got 0"),
            ({"replicas": 0}, "replicas must be positive, got 0"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
        ],
    )
    def test_positivity_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ServeOptions(**kwargs)

    def test_admission_must_be_known(self):
        with pytest.raises(ValueError, match="unknown admission 'drop'"):
            ServeOptions(admission="drop")
        for policy in ADMISSION_POLICIES:
            assert ServeOptions(admission=policy).admission == policy


class TestEvolveAndDerived:
    def test_evolve(self):
        base = ServeOptions()
        tight = base.evolve(deadline_ms=10.0, max_batch=4)
        assert (tight.deadline_ms, tight.max_batch) == (10.0, 4)
        assert base.deadline_ms == 50.0

    def test_evolve_still_validates(self):
        with pytest.raises(ValueError, match="max_batch must be positive"):
            ServeOptions().evolve(max_batch=-1)

    def test_derived_budgets(self):
        opts = ServeOptions(deadline_ms=200.0)
        assert opts.deadline_s == pytest.approx(0.2)
        assert opts.assemble_budget_s == pytest.approx(0.2 * ASSEMBLE_FRACTION)
