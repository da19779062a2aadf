"""Schedule plans: golden step structures and cost-model identities."""

import pytest

from repro.cluster.machine import SUMMIT, THETA
from repro.comms import (
    DEFAULT_OPTIONS,
    CollectiveOptions,
    Topology,
    plan_allgather,
    plan_allreduce,
    plan_broadcast,
)
from repro.mpi.network import CollectiveCostModel

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
        sched = plan_allgather(1 << 10, SINGLE_NODE)
        assert [(s.phase, s.rounds) for s in sched.steps] == [("allgather", 5)]

    def test_world_of_one_is_empty(self):
        assert plan_allreduce(1 << 20, Topology(world=1)).steps == ()


class TestCostIdentities:
    """Planned costs reproduce the legacy CollectiveCostModel exactly."""

    @pytest.mark.parametrize("machine", [SUMMIT, THETA])
    @pytest.mark.parametrize("nworkers", [2, 6, 48, 384, 3072])
    @pytest.mark.parametrize("nbytes", [8 << 10, 1 << 20, 64 << 20])
    def test_default_allreduce_matches_hierarchical_model(
        self, machine, nworkers, nbytes
    ):
        cm = CollectiveCostModel(
            machine.fabric, ranks_per_node=machine.workers_per_node
        )
        topo = Topology.from_machine(machine, nworkers)
        planned = plan_allreduce(nbytes, topo, DEFAULT_OPTIONS).seconds(
            machine.fabric
        )
        assert planned == pytest.approx(
            cm.allreduce_hierarchical(nbytes, nworkers), rel=1e-12
        )

    @pytest.mark.parametrize("nworkers", [2, 6, 48, 384])
    def test_ring_matches_ring_model(self, nworkers):
        cm = CollectiveCostModel(SUMMIT.fabric, ranks_per_node=SUMMIT.workers_per_node)
        topo = Topology.from_machine(SUMMIT, nworkers)
        planned = plan_allreduce(
            1 << 20, topo, CollectiveOptions(algorithm="ring")
        ).seconds(SUMMIT.fabric)
        assert planned == pytest.approx(cm.allreduce_ring(1 << 20, nworkers), rel=1e-12)

    @pytest.mark.parametrize("nworkers", [2, 8, 128])
    def test_rhd_matches_rhd_model(self, nworkers):
        machine = THETA
        cm = CollectiveCostModel(
            machine.fabric, ranks_per_node=machine.workers_per_node
        )
        topo = Topology.from_machine(machine, nworkers)
        planned = plan_allreduce(
            4 << 10, topo, CollectiveOptions(algorithm="rhd")
        ).seconds(machine.fabric)
        assert planned == pytest.approx(cm.allreduce_rhd(4 << 10, nworkers), rel=1e-12)

    @pytest.mark.parametrize("nworkers", [2, 6, 48, 384])
    def test_default_broadcast_matches_hierarchical_model(self, nworkers):
        cm = CollectiveCostModel(SUMMIT.fabric, ranks_per_node=SUMMIT.workers_per_node)
        topo = Topology.from_machine(SUMMIT, nworkers)
        planned = plan_broadcast(1 << 20, topo, DEFAULT_OPTIONS).seconds(SUMMIT.fabric)
        assert planned == pytest.approx(
            cm.broadcast_hierarchical(1 << 20, nworkers), rel=1e-12
        )


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
        with pytest.raises(ValueError):
            plan_allgather(-1, SUMMIT_PAIR)
