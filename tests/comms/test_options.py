"""CollectiveOptions: validation, derived quantities, algorithm selection."""

import pytest

from repro.comms import (
    ALGORITHMS,
    DEFAULT_OPTIONS,
    CollectiveOptions,
    Topology,
    select_algorithm,
)
from repro.comms.options import SMALL_MESSAGE_BYTES


class TestValidation:
    def test_defaults_are_valid_and_frozen(self):
        opts = CollectiveOptions()
        assert opts.algorithm == "auto"
        assert opts.fault_tolerance is None and opts.emulate_fabric is None
        with pytest.raises(Exception):
            opts.algorithm = "ring"

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            CollectiveOptions("ring")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "butterfly"},
            {"fault_tolerance": object()},
            {"chunk_bytes": 0},
            {"emulate_fabric": 3},
            {"fusion_bytes": 0},
            {"chunk_bytes": -1},
            {"emulate_fabric_scale": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CollectiveOptions(**kwargs)

    def test_known_sets(self):
        assert "auto" in ALGORITHMS and "hierarchical" in ALGORITHMS
        assert ALGORITHMS == ("auto", "flat", "ring", "rhd", "hierarchical")


class TestDerived:
    def test_nchunks_unchunked(self):
        assert CollectiveOptions().nchunks(1 << 30) == 1

    def test_nchunks_ceiling(self):
        opts = CollectiveOptions(chunk_bytes=1000)
        assert opts.nchunks(1000) == 1
        assert opts.nchunks(1001) == 2
        assert opts.nchunks(0) == 1

    def test_evolve_replaces_without_mutation(self):
        opts = CollectiveOptions()
        ring = opts.evolve(algorithm="ring")
        assert ring.algorithm == "ring" and opts.algorithm == "auto"
        assert ring.fusion_bytes == opts.fusion_bytes


SUMMIT_PAIR = Topology(world=12, local_size=6)  # 2 nodes x 6 GPUs
SINGLE_NODE = Topology(world=6, local_size=6)
THETA_LIKE = Topology(world=8, local_size=1)  # 1 rank per node, pow2


class TestSelection:
    def test_world_of_one_is_flat(self):
        assert select_algorithm(1 << 20, Topology(world=1), DEFAULT_OPTIONS) == "flat"

    def test_multi_node_uniform_is_hierarchical(self):
        assert select_algorithm(64 << 20, SUMMIT_PAIR, DEFAULT_OPTIONS) == "hierarchical"
        # any size: auto keeps the hierarchy even for small buffers
        assert select_algorithm(1 << 10, SUMMIT_PAIR, DEFAULT_OPTIONS) == "hierarchical"

    def test_single_node_large_is_ring(self):
        assert select_algorithm(64 << 20, SINGLE_NODE, DEFAULT_OPTIONS) == "ring"

    def test_small_power_of_two_is_rhd(self):
        assert select_algorithm(8 << 10, THETA_LIKE, DEFAULT_OPTIONS) == "rhd"
        # above the threshold: ring
        assert select_algorithm(64 << 20, THETA_LIKE, DEFAULT_OPTIONS) == "ring"
        # the threshold itself: 16 KiB is still small
        assert SMALL_MESSAGE_BYTES == 16 << 10
        at, above = SMALL_MESSAGE_BYTES, SMALL_MESSAGE_BYTES + 1
        assert select_algorithm(at, THETA_LIKE, DEFAULT_OPTIONS) == "rhd"
        assert select_algorithm(above, THETA_LIKE, DEFAULT_OPTIONS) == "ring"

    def test_rhd_demoted_on_non_power_of_two(self):
        topo = Topology(world=12, local_size=1)
        opts = CollectiveOptions(algorithm="rhd")
        assert select_algorithm(8 << 10, topo, opts) == "ring"

    def test_hierarchical_demoted_on_non_uniform(self):
        topo = Topology(world=13, local_size=6)  # ragged last node
        opts = CollectiveOptions(algorithm="hierarchical")
        assert select_algorithm(64 << 20, topo, opts) == "ring"

    def test_hierarchical_demoted_on_single_node(self):
        opts = CollectiveOptions(algorithm="hierarchical")
        assert select_algorithm(64 << 20, SINGLE_NODE, opts) == "ring"

    def test_explicit_choices_honoured(self):
        for algo in ("flat", "ring"):
            opts = CollectiveOptions(algorithm=algo)
            assert select_algorithm(64 << 20, SUMMIT_PAIR, opts) == algo


class TestTopology:
    def test_geometry(self):
        assert SUMMIT_PAIR.nnodes == 2 and SUMMIT_PAIR.uniform
        assert SUMMIT_PAIR.node_of(7) == 1
        assert SUMMIT_PAIR.local_index(7) == 1
        assert SUMMIT_PAIR.node_ranks(7) == [6, 7, 8, 9, 10, 11]
        assert SUMMIT_PAIR.rail_ranks(7) == [1, 7]

    def test_non_uniform(self):
        ragged = Topology(world=13, local_size=6)
        assert ragged.nnodes == 3 and not ragged.uniform

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(world=0)
        with pytest.raises(ValueError):
            SUMMIT_PAIR.node_of(12)

    def test_from_machine(self):
        from repro.cluster.machine import SUMMIT

        topo = Topology.from_machine(SUMMIT, 384)
        assert topo.local_size == 6 and topo.nnodes == 64
        small = Topology.from_machine(SUMMIT, 4)
        assert small.local_size == 4  # capped at the world size
