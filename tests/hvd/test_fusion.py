"""Tensor fusion: the greedy grouping rule (``repro.nn.arena.fusion_plan``)
and the arena's slab slices it cuts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import ParameterArena
from repro.nn.arena import fusion_plan


@pytest.fixture
def tensors(rng):
    return {
        "c": rng.normal(size=(2, 3, 5)),
        "a": rng.normal(size=(4, 4)),
        "b": rng.normal(size=(10,)),
    }


def test_plan_is_deterministic_and_sorted(tensors):
    arena = ParameterArena(tensors)
    groups = arena.fusion_groups(1 << 20)
    assert [names for _, _, names in groups] == [["a", "b", "c"]]  # one group, sorted
    assert groups == arena.fusion_groups(1 << 20)


def test_plan_splits_at_capacity():
    sizes = [1024] * 6
    groups = fusion_plan(sizes, 2 * 1024)
    assert groups == [range(0, 2), range(2, 4), range(4, 6)]


def test_oversized_tensor_gets_own_group():
    assert fusion_plan([8192, 32], 64) == [range(0, 1), range(1, 2)]
    assert fusion_plan([32, 8192, 32], 64) == [range(0, 1), range(1, 2), range(2, 3)]


def test_fused_sizes_accounting(tensors):
    sizes = [t.nbytes for t in tensors.values()]
    groups = fusion_plan(sizes, 256)
    assert sum(sum(sizes[g.start : g.stop]) for g in groups) == sum(sizes)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        fusion_plan([8], 0)


@given(
    sizes=st.lists(st.integers(min_value=8, max_value=4000), min_size=1, max_size=12),
    capacity=st.integers(min_value=64, max_value=4096),
)
@settings(max_examples=30, deadline=None)
def test_property_plan_covers_all_tensors_once(sizes, capacity):
    groups = fusion_plan(sizes, capacity)
    # consecutive groups, in order, each index exactly once
    assert [i for g in groups for i in g] == list(range(len(sizes)))
    # every multi-tensor group respects capacity
    for g in groups:
        if len(g) > 1:
            assert sum(sizes[g.start : g.stop]) <= capacity
    # and is greedy: the next tensor would not have fit
    for g, after in zip(groups, groups[1:]):
        assert sum(sizes[g.start : g.stop]) + sizes[after.start] > capacity
