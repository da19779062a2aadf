"""Schedule plans: golden step structures and their alpha-beta prices."""

import pytest

from repro.cluster.machine import SUMMIT
from repro.comms import (
    DEFAULT_OPTIONS,
    CollectiveOptions,
    Topology,
    plan_allreduce,
    plan_broadcast,
)
from repro.mpi.network import FabricSpec

SUMMIT_PAIR = Topology(world=12, local_size=6)
SINGLE_NODE = Topology(world=6, local_size=6)
THETA_128 = Topology(world=128, local_size=1)


class TestGoldenSchedules:
    """The exact step structure per (algorithm, topology) is the API."""

    def test_hierarchical_on_summit_pair(self):
        sched = plan_allreduce(64 << 20, SUMMIT_PAIR, DEFAULT_OPTIONS)
        assert sched.algorithm == "hierarchical"
        got = [(s["phase"], s["level"], s["rounds"]) for s in sched.describe()]
        assert got == [
            ("reduce_scatter", "intra", 5),
            ("inter_ring", "inter", 2),
            ("allgather", "intra", 5),
        ]
        rs, inter, ag = sched.steps
        assert rs.wire_bytes == pytest.approx((64 << 20) * 5 / 6)
        # the inter stage ships the full chunk over the node NIC: the
        # 6 rail rings share it, each carrying 1/6 across 2(nnodes-1) hops
        assert inter.wire_bytes == pytest.approx(2 * (64 << 20) * (1 / 2))
        assert ag.wire_bytes == pytest.approx((64 << 20) * 5 / 6)

    def test_ring_on_single_node(self):
        sched = plan_allreduce(6000, SINGLE_NODE, CollectiveOptions(algorithm="ring"))
        assert sched.algorithm == "ring"
        phases = [(s.phase, s.level, s.rounds) for s in sched.steps]
        assert phases == [
            ("reduce_scatter", "intra", 5),
            ("allgather", "intra", 5),
        ]
        assert sched.steps[0].wire_bytes == pytest.approx(6000 * 5 / 6)

    def test_rhd_on_theta(self):
        sched = plan_allreduce(8 << 10, THETA_128, DEFAULT_OPTIONS)
        assert sched.algorithm == "rhd"
        phases = [(s.phase, s.level, s.rounds) for s in sched.steps]
        assert phases == [("halving", "inter", 7), ("doubling", "inter", 7)]

    def test_broadcast_two_level(self):
        sched = plan_broadcast(1 << 20, SUMMIT_PAIR, DEFAULT_OPTIONS)
        assert sched.algorithm == "hierarchical"
        phases = [(s.phase, s.level, s.rounds) for s in sched.steps]
        assert phases == [("inter_tree", "inter", 1), ("intra_tree", "intra", 3)]

    def test_broadcast_flat_forced(self):
        sched = plan_broadcast(
            1 << 20, SUMMIT_PAIR, CollectiveOptions(algorithm="flat")
        )
        assert sched.algorithm == "flat"
        assert [(s.phase, s.rounds) for s in sched.steps] == [("tree", 4)]

    def test_allgather_ring(self):
        # a ring allreduce ends in an allgather of p - 1 rounds
        sched = plan_allreduce(1 << 10, SINGLE_NODE, CollectiveOptions(algorithm="ring"))
        assert [(s.phase, s.rounds) for s in sched.steps][-1] == ("allgather", 5)

    def test_world_of_one_is_empty(self):
        assert plan_allreduce(1 << 20, Topology(world=1)).steps == ()

    def test_flat_allreduce_is_one_ring_chunk(self):
        opts = CollectiveOptions(algorithm="flat", chunk_bytes=8 << 10)
        sched = plan_allreduce(64 << 10, SINGLE_NODE, opts)
        assert (sched.algorithm, sched.nchunks) == ("flat", 1)
        ring = plan_allreduce(64 << 10, SINGLE_NODE, opts.evolve(algorithm="ring"))
        assert ring.nchunks == 8
        assert sched.steps == plan_allreduce(
            64 << 10, SINGLE_NODE, CollectiveOptions(algorithm="ring")
        ).steps


class TestPricing:
    """A schedule's price is the alpha-beta-gamma cost of its steps."""

    @pytest.fixture
    def fabric(self):
        return FabricSpec(
            name="test",
            intra_alpha_s=1e-6,
            intra_beta_s_per_b=1e-11,
            inter_alpha_s=1e-5,
            inter_beta_s_per_b=1e-10,
        )

    @staticmethod
    def ring_s(nbytes, world, fabric, local_size=6):
        topo = Topology(world=world, local_size=min(world, local_size))
        return plan_allreduce(
            nbytes, topo, CollectiveOptions(algorithm="ring")
        ).seconds(fabric)

    def test_world_of_one_is_free(self, fabric):
        one = Topology(world=1)
        assert plan_allreduce(1 << 20, one).seconds(fabric) == 0.0
        assert plan_broadcast(1 << 20, one).seconds(fabric) == 0.0

    def test_ring_prices_the_textbook_formula(self, fabric):
        n, p = 1 << 20, 4  # one node: the intra link
        expected = (
            2 * (p - 1) * fabric.intra_alpha_s
            + 2 * n * (p - 1) / p * fabric.intra_beta_s_per_b
            + n * (p - 1) / p * fabric.reduce_gamma_s_per_b
        )
        assert self.ring_s(n, p, fabric) == pytest.approx(expected, rel=1e-12)

    def test_inter_node_link_bounds_a_multi_node_ring(self, fabric):
        n, p = 1 << 20, 12  # two nodes of six
        expected = (
            2 * (p - 1) * fabric.inter_alpha_s
            + 2 * n * (p - 1) / p * fabric.inter_beta_s_per_b
            + n * (p - 1) / p * fabric.reduce_gamma_s_per_b
        )
        assert self.ring_s(n, p, fabric) == pytest.approx(expected, rel=1e-12)

    def test_ring_bandwidth_term_saturates_with_p(self, fabric):
        """Ring moves 2n(p-1)/p bytes — nearly constant in p; latency grows."""
        small = self.ring_s(100 << 20, 12, fabric)
        large = self.ring_s(100 << 20, 3072, fabric)
        # bounded by latency growth, not x256 bandwidth growth
        assert large < small * 30

    def test_ring_monotone_in_bytes(self, fabric):
        assert self.ring_s(2 << 20, 48, fabric) > self.ring_s(1 << 20, 48, fabric)

    def test_hierarchical_beats_ring_at_3072(self, fabric):
        topo = Topology(world=3072, local_size=6)
        hier = plan_allreduce(
            64 << 20, topo, CollectiveOptions(algorithm="hierarchical")
        ).seconds(fabric)
        assert hier < self.ring_s(64 << 20, 3072, fabric)

    def test_hierarchical_equals_ring_on_one_node(self, fabric):
        hier = plan_allreduce(
            1 << 20, SINGLE_NODE, CollectiveOptions(algorithm="hierarchical")
        ).seconds(fabric)
        assert hier == self.ring_s(1 << 20, 6, fabric)

    def test_broadcast_prices_two_trees(self, fabric):
        nbytes = 1 << 20
        got = plan_broadcast(nbytes, Topology(world=48, local_size=6)).seconds(fabric)
        inter = 3 * (fabric.inter_alpha_s + nbytes * fabric.inter_beta_s_per_b)
        intra = 3 * (fabric.intra_alpha_s + nbytes * fabric.intra_beta_s_per_b)
        assert got == pytest.approx(inter + intra, rel=1e-12)

    def test_flat_broadcast_prices_log_rounds(self, fabric):
        n = 1 << 10
        got = plan_broadcast(
            n, Topology(world=8, local_size=1), CollectiveOptions(algorithm="flat")
        ).seconds(fabric)
        per_round = fabric.inter_alpha_s + n * fabric.inter_beta_s_per_b
        assert got == pytest.approx(3 * per_round, rel=1e-12)

    def test_allgather_grows_with_world(self, fabric):
        def allgather_s(world):
            topo = Topology(world=world, local_size=min(world, 6))
            sched = plan_allreduce(1 << 20, topo, CollectiveOptions(algorithm="ring"))
            (step,) = [s for s in sched.steps if s.phase == "allgather"]
            return step.seconds(fabric)

        assert allgather_s(12) > allgather_s(2)


class TestPipelining:
    def test_chunked_schedule_is_fill_plus_bottleneck(self):
        opts = CollectiveOptions(chunk_bytes=16 << 20)
        one = plan_allreduce(16 << 20, SUMMIT_PAIR, opts)
        four = plan_allreduce(64 << 20, SUMMIT_PAIR, opts)
        per_step = [s.seconds(SUMMIT.fabric) for s in one.steps]
        expected = sum(per_step) + 3 * max(per_step)
        assert four.nchunks == 4
        assert four.seconds(SUMMIT.fabric) == pytest.approx(expected, rel=1e-12)

    def test_pipelining_beats_sequential_chunks(self):
        opts = CollectiveOptions(chunk_bytes=8 << 20)
        sched = plan_allreduce(64 << 20, SUMMIT_PAIR, opts)
        sequential = 8 * plan_allreduce(8 << 20, SUMMIT_PAIR, opts).seconds(
            SUMMIT.fabric
        )
        assert sched.seconds(SUMMIT.fabric) < sequential

    def test_wire_bytes_scale_with_chunks(self):
        opts = CollectiveOptions(chunk_bytes=16 << 20)
        sched = plan_allreduce(64 << 20, SUMMIT_PAIR, opts)
        whole = plan_allreduce(64 << 20, SUMMIT_PAIR, DEFAULT_OPTIONS)
        assert sched.wire_bytes() == pytest.approx(whole.wire_bytes(), rel=1e-12)

    def test_invalid_nbytes_rejected(self):
        with pytest.raises(ValueError):
            plan_allreduce(-1, SUMMIT_PAIR)
        with pytest.raises(ValueError):
            plan_broadcast(-1, SUMMIT_PAIR)
