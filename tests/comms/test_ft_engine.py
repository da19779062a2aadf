"""The fault matrix: every algorithm × every message fault.

For each transport algorithm (ring, recursive halving-doubling,
hierarchical) and each injected message fault (drop, corrupt, delay,
rank-kill), the fault-tolerant engine must either complete bit-identical
to the fault-free flat reference (retry path) or complete cleanly on the
demoted/rebuilt configuration (kill path: survivors bit-identical to a
fresh canonical reduction over surviving inputs). Plus the surrounding
contracts: demotion audit trail on the schedule, error context on
aggregated failures, fault-free bit-identity.
"""

import numpy as np
import pytest

from repro.comms import CollectiveOptions
from repro.comms.ft import FaultToleranceOptions
from repro.comms.ft.engine import FaultTolerantEngine
from repro.mpi import run_spmd
from repro.mpi.communicator import canonical_reduce
from repro.mpi.runtime import SpmdError
from repro.resilience.faults import FaultInjector, FaultPlan

#: fast-turnaround FT options for the matrix (short deadlines, quick
#: beats, wire CRC armed so msg_corrupt is detectable)
FTO = FaultToleranceOptions(
    heartbeat_interval_s=0.005,
    chunk_deadline_s=0.1,
    retry_base_delay_s=0.001,
    checksum=True,
)

#: algorithm → (world, local_size) on which it is natively selectable
ALGO_TOPOLOGY = {
    "ring": (4, 1),
    "rhd": (4, 1),
    "hierarchical": (4, 2),
}


def rank_input(rank, n=600):
    return np.random.default_rng(500 + rank).standard_normal(n)


def expected_mean(ranks, n=600):
    return canonical_reduce([rank_input(r, n) for r in sorted(ranks)], "mean")


def ft_worker(opts, collect, n=600):
    def worker(comm):
        engine = FaultTolerantEngine(comm, opts)
        try:
            out = engine.allreduce(rank_input(comm.rank, n), name="g")
        finally:
            engine.close()
        collect[comm.rank] = (
            out,
            dict(engine.last_info),
            dict(engine.channel.counters),
            engine.last_recovery,
            len(engine.rebuilds),
        )
        return comm.rank

    return worker


class TestFaultMatrix:
    @pytest.mark.parametrize("algorithm", sorted(ALGO_TOPOLOGY))
    @pytest.mark.parametrize("kind", ["msg_drop", "msg_corrupt", "msg_delay"])
    def test_transient_fault_completes_bit_identical(self, algorithm, kind):
        world, local = ALGO_TOPOLOGY[algorithm]
        opts = CollectiveOptions(algorithm=algorithm, fault_tolerance=FTO)
        plan = FaultPlan.single_message_fault(
            kind, rank=1, message=2, delay_s=0.15
        )
        collect = {}
        run_spmd(
            world,
            ft_worker(opts, collect),
            local_size=local,
            fault_injector=FaultInjector(plan),
        )
        expect = expected_mean(range(world))
        for rank, (out, info, _, _, rebuilds) in collect.items():
            assert np.array_equal(out, expect), (algorithm, kind, rank)
            assert info["algorithm"] == algorithm
            assert rebuilds == 0
        # the fault actually fired and was recovered somewhere
        fired = {
            "msg_drop": "faults_dropped",
            "msg_corrupt": "faults_corrupted",
            "msg_delay": "faults_delayed",
        }[kind]
        totals = {}
        for _, _, counters, _, _ in collect.values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        assert totals.get(fired, 0) == 1
        if kind == "msg_corrupt":
            assert totals.get("checksum_failures", 0) >= 1
        if kind == "msg_drop":
            assert totals.get("retransmit_requests", 0) >= 1

    @pytest.mark.parametrize("algorithm", sorted(ALGO_TOPOLOGY))
    def test_rank_kill_rebuilds_and_survivors_match_flat(self, algorithm):
        world, local = ALGO_TOPOLOGY[algorithm]
        victim = 2
        opts = CollectiveOptions(algorithm=algorithm, fault_tolerance=FTO)
        plan = FaultPlan.single_message_fault(
            "rank_kill", rank=victim, message=1
        )
        collect = {}
        results = run_spmd(
            world,
            ft_worker(opts, collect),
            local_size=local,
            fault_injector=FaultInjector(plan),
        )
        assert results[victim] is None  # the death was survivable
        survivors = [r for r in range(world) if r != victim]
        # acceptance gate: bitwise identical to a fresh flat allreduce
        # (canonical reduction) over the surviving ranks' inputs
        expect = expected_mean(survivors)
        for rank in survivors:
            out, _, _, recovery, rebuilds = collect[rank]
            assert np.array_equal(out, expect), (algorithm, rank)
            assert rebuilds == 1
            assert recovery is not None and recovery["recovery_s"] > 0


class TestFaultFree:
    @pytest.mark.parametrize("algorithm", sorted(ALGO_TOPOLOGY))
    def test_no_faults_bit_identical_to_reference(self, algorithm):
        world, local = ALGO_TOPOLOGY[algorithm]
        opts = CollectiveOptions(algorithm=algorithm, fault_tolerance=FTO)
        collect = {}
        run_spmd(world, ft_worker(opts, collect), local_size=local)
        expect = expected_mean(range(world))
        for rank, (out, info, counters, recovery, _) in collect.items():
            assert np.array_equal(out, expect)
            assert info["algorithm"] == algorithm
            assert "demoted_from" not in info
            assert recovery is None
            assert counters.get("retransmit_requests", 0) == 0


class TestDemotion:
    def test_silent_death_walks_demotion_ladder_to_rebuild(self):
        """A rank that dies *without* a death notice exhausts
        retransmissions (transient error → demote) until the detector
        condemns it by silence and the survivors rebuild."""
        fto = FaultToleranceOptions(
            heartbeat_interval_s=0.005,
            chunk_deadline_s=0.05,
            retry_base_delay_s=0.001,
            max_retransmits=2,
            death_notice=False,
            phi_dead=6.0,
        )
        opts = CollectiveOptions(algorithm="ring", fault_tolerance=fto)
        plan = FaultPlan.single_message_fault("rank_kill", rank=3, message=1)
        collect = {}
        results = run_spmd(
            4,
            ft_worker(opts, collect),
            fault_injector=FaultInjector(plan),
        )
        assert results[3] is None
        expect = expected_mean([0, 1, 2])
        for rank in (0, 1, 2):
            out, _, _, _, rebuilds = collect[rank]
            assert np.array_equal(out, expect), rank
            assert rebuilds == 1

    def test_suspect_peer_demotes_hierarchical_to_ring(self):
        """Suspicion (from retransmission experience) pre-demotes the
        fragile hierarchical schedule to ring, collectively, and the
        executed plan records the demotion."""
        opts = CollectiveOptions(algorithm="hierarchical", fault_tolerance=FTO)
        collect = {}

        def worker(comm):
            engine = FaultTolerantEngine(comm, opts)
            engine.channel.ensure_started()
            if comm.rank == 0:
                engine.channel.detector.note_slow(3)
            comm.barrier()  # suspicion registered before the collective
            try:
                out = engine.allreduce(rank_input(comm.rank), name="g")
            finally:
                engine.close()
            collect[comm.rank] = (out, dict(engine.last_info))
            return comm.rank

        run_spmd(4, worker, local_size=2)
        expect = expected_mean(range(4))
        for rank, (out, info) in collect.items():
            assert np.array_equal(out, expect), rank
            assert info["algorithm"] == "ring"
        # the initiating rank's plan carries the audit trail
        assert collect[0][1]["demoted_from"] == "hierarchical"
        assert "suspect" in collect[0][1]["demotion_reason"]

    def test_demotion_disabled_raises_transient_error_with_context(self):
        """Satellite: a transient failure inside a pipelined chunked
        schedule surfaces the failing chunk index, algorithm, and peer
        rank in the aggregated error."""
        fto = FaultToleranceOptions(
            heartbeat_interval_s=0.005,
            chunk_deadline_s=0.05,
            retry_base_delay_s=0.001,
            max_retransmits=1,
            death_notice=False,
            allow_demotion=False,
            allow_rebuild=False,
            phi_dead=50.0,  # effectively never condemned by silence
        )
        opts = CollectiveOptions(
            algorithm="ring", chunk_bytes=1200, fault_tolerance=fto
        )
        plan = FaultPlan.single_message_fault("rank_kill", rank=3, message=5)
        with pytest.raises(SpmdError) as err:
            run_spmd(
                4,
                ft_worker(opts, {}),
                fault_injector=FaultInjector(plan),
            )
        ctx_failures = err.value.collective_failures()
        assert ctx_failures, "expected context-carrying collective failures"
        _, exc = ctx_failures[0]
        assert exc.algorithm == "ring"
        assert exc.chunk is not None and exc.chunk >= 0
        assert exc.peer is not None
        assert "chunk=" in str(exc)


class TestChunkedAndRepeated:
    def test_chunked_pipeline_recovers_mid_stream(self):
        opts = CollectiveOptions(
            algorithm="ring", chunk_bytes=1200, fault_tolerance=FTO
        )
        plan = FaultPlan.single_message_fault("msg_drop", rank=1, message=7)
        collect = {}
        run_spmd(
            4,
            ft_worker(opts, collect, n=1200),
            fault_injector=FaultInjector(plan),
        )
        expect = expected_mean(range(4), n=1200)
        for rank, (out, info, _, _, _) in collect.items():
            assert np.array_equal(out, expect), rank
            assert info["chunks"] > 1

    def test_training_continues_across_rebuild(self):
        """Consecutive allreduces: the first loses a rank mid-flight,
        the remaining ones complete on the rebuilt communicator without
        re-initialization."""
        opts = CollectiveOptions(algorithm="ring", fault_tolerance=FTO)
        plan = FaultPlan.single_message_fault("rank_kill", rank=1, message=1)
        collect = {}

        def worker(comm):
            engine = FaultTolerantEngine(comm, opts)
            outs = []
            try:
                for step in range(3):
                    outs.append(
                        engine.allreduce(
                            rank_input(comm.rank) * (step + 1),
                            name=f"g{step}",
                        )
                    )
            finally:
                engine.close()
            collect[comm.rank] = (outs, len(engine.rebuilds))
            return comm.rank

        results = run_spmd(
            4, worker, fault_injector=FaultInjector(plan)
        )
        assert results[1] is None
        survivors = [0, 2, 3]
        for step in range(3):
            expect = canonical_reduce(
                [rank_input(r) * (step + 1) for r in survivors], "mean"
            )
            for rank in survivors:
                outs, rebuilds = collect[rank]
                assert np.array_equal(outs[step], expect), (step, rank)
                assert rebuilds == 1
