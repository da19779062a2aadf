"""End-to-end serving runs: dispatch, SLO accounting, hot-swap identity."""

from __future__ import annotations

import sys
import time
import types

import numpy as np
import pytest

from repro.mpi import communicator as communicator_module
from repro.mpi.communicator import Communicator, _Context
from repro.nn import Sequential
from repro.nn.layers import Dense
from repro.ps.rpc import RpcChannel
from repro.serve import server as server_module
from repro.serve import (
    ClosedWorkload,
    OpenWorkload,
    ServeOptions,
    SwapPlan,
    install_weights,
    request_features,
    serve_workload,
)

FEATURES = 6


def build_model() -> Sequential:
    model = Sequential()
    model.add(Dense(8, activation="relu"))
    model.add(Dense(3))
    model.build((FEATURES,), seed=5)
    return model


@pytest.fixture(scope="module")
def pool() -> np.ndarray:
    return np.random.default_rng(0).normal(size=(64, FEATURES))


@pytest.fixture(scope="module")
def weights() -> dict:
    return {k: v.copy() for k, v in build_model().named_parameters().items()}


def serve_opts(**overrides) -> ServeOptions:
    defaults = dict(max_batch=8, deadline_ms=500.0, replicas=2, queue_depth=64)
    defaults.update(overrides)
    return ServeOptions(**defaults)


def assert_replays(report, pool, versions: dict, rows: int) -> int:
    """Replay each dispatched batch exactly as the replica saw it.

    Asserts every served prediction bit for bit against a reference
    model holding the batch's logged version; returns requests checked.
    """
    ref = build_model()
    checked = 0
    for version, req_ids in report.batch_log:
        install_weights(ref, versions[version])
        feats = np.concatenate(
            [request_features(pool, rid, rows) for rid in req_ids], axis=0
        )
        expected = ref._forward(feats, training=False)
        for i, rid in enumerate(req_ids):
            got_version, got = report.responses[rid]
            assert got_version == version
            np.testing.assert_array_equal(got, expected[i * rows:(i + 1) * rows])
            checked += 1
    return checked


class TestRequestFeatures:
    def test_deterministic_assignment(self, pool):
        a = request_features(pool, 3, 4)
        np.testing.assert_array_equal(a, pool[12:16])
        np.testing.assert_array_equal(a, request_features(pool, 3, 4))

    def test_wraparound(self, pool):
        got = request_features(pool, 21, 3)  # starts at 63, wraps
        np.testing.assert_array_equal(
            got, np.concatenate([pool[63:64], pool[:2]], axis=0)
        )

    def test_oversized_request_rejected(self, pool):
        with pytest.raises(ValueError, match="exceed pool size"):
            request_features(pool, 0, len(pool) + 1)


class TestInstallWeights:
    def test_installs_bitwise(self, weights):
        model = build_model()
        perturbed = {k: v + 1.0 for k, v in weights.items()}
        install_weights(model, perturbed)
        for name, param in model.named_parameters().items():
            np.testing.assert_array_equal(param, perturbed[name])

    def test_name_mismatch_raises(self, weights):
        model = build_model()
        bad = dict(weights)
        bad["ghost"] = np.zeros(3)
        with pytest.raises(ValueError, match="weight set mismatch"):
            install_weights(model, bad)

    def test_shape_mismatch_raises(self, weights):
        model = build_model()
        bad = {k: (v if i else v.reshape(-1)[: v.size - 1]) for i, (k, v) in enumerate(sorted(weights.items()))}
        with pytest.raises(ValueError, match="mismatch"):
            install_weights(model, bad)


class TestSwapPlan:
    def test_validation(self, weights):
        with pytest.raises(ValueError, match="after_requests must be non-negative"):
            SwapPlan(version="v1", weights=weights, after_requests=-1)
        with pytest.raises(ValueError, match="weights must be non-empty"):
            SwapPlan(version="v1", weights={}, after_requests=0)


class TestClosedWorkloadServing:
    def test_all_requests_answered(self, pool, weights):
        workload = ClosedWorkload(clients=3, requests_per_client=4)
        report = serve_workload(
            build_model, workload, pool, serve_opts(), initial_weights=weights
        )
        slo = report.slo
        assert slo.requests == workload.total_requests
        assert slo.rejected == 0 and slo.shed == 0
        assert slo.rows == workload.total_requests  # 1 row each
        assert report.batches >= 1
        assert sum(report.per_replica_batches.values()) == report.batches
        assert report.versions == ["v0"]
        assert report.swaps == 0
        assert slo.p50_ms <= slo.p99_ms <= slo.max_ms + 1e-9

    def test_predictions_match_reference(self, pool, weights):
        workload = ClosedWorkload(clients=2, requests_per_client=3,
                                  rows_per_request=2)
        report = serve_workload(
            build_model, workload, pool, serve_opts(),
            initial_weights=weights, keep_responses=True,
        )
        assert report.versions == ["v0"]
        checked = assert_replays(report, pool, {"v0": weights}, rows=2)
        assert checked == workload.total_requests


class TestOpenWorkloadServing:
    def test_arrivals_conserved_under_reject(self, pool, weights):
        arrivals = np.linspace(0.0, 0.2, 60)
        workload = OpenWorkload(arrivals=arrivals)
        report = serve_workload(
            build_model, workload, pool,
            serve_opts(queue_depth=2, admission="reject", deadline_ms=2000.0),
            initial_weights=weights,
        )
        slo = report.slo
        assert slo.requests + slo.rejected + slo.shed == len(arrivals)
        assert slo.requests >= 1

    def test_shed_oldest_counts(self, pool, weights):
        arrivals = np.zeros(40)  # everything at once: queue must overflow
        workload = OpenWorkload(arrivals=arrivals)
        report = serve_workload(
            build_model, workload, pool,
            serve_opts(queue_depth=4, admission="shed_oldest",
                       deadline_ms=2000.0),
            initial_weights=weights,
        )
        slo = report.slo
        assert slo.requests + slo.rejected + slo.shed == len(arrivals)
        assert slo.shed >= 1


class TestHotSwap:
    def test_swap_is_bitwise_attributable(self, pool, weights):
        w1 = {k: v + 0.25 for k, v in weights.items()}
        arrivals = np.linspace(0.0, 0.4, 30)
        report = serve_workload(
            build_model,
            OpenWorkload(arrivals=arrivals, rows_per_request=2),
            pool,
            serve_opts(),
            initial_weights=weights,
            swaps=[SwapPlan(version="v1", weights=w1, after_requests=10)],
            keep_responses=True,
        )
        assert report.swaps == 1
        assert report.versions == ["v0", "v1"]
        checked = assert_replays(report, pool, {"v0": weights, "v1": w1}, rows=2)
        assert checked == len(arrivals)

    def test_unreached_swap_still_ships_at_end(self, pool, weights):
        w1 = {k: v * 2.0 for k, v in weights.items()}
        workload = ClosedWorkload(clients=1, requests_per_client=3)
        report = serve_workload(
            build_model, workload, pool, serve_opts(),
            initial_weights=weights,
            swaps=[SwapPlan(version="v1", weights=w1, after_requests=10**6)],
        )
        assert report.swaps == 1
        assert report.versions == ["v0", "v1"]


class TestEventDrivenFrontend:
    """The front-end sleeps on arrivals; only the load generator's
    schedule (arrival pacing, think time) may call ``time.sleep``."""

    @pytest.fixture(autouse=True)
    def only_schedules_sleep(self, monkeypatch):
        def never(_seconds):
            raise AssertionError("the message path called time.sleep")

        def schedule_only(seconds):
            caller = sys._getframe(1).f_code.co_name
            if caller not in ("_run_open", "_run_closed_client"):
                raise AssertionError(f"serve.server.{caller} called time.sleep")
            time.sleep(seconds)

        for module, sleep in (
            (communicator_module, never),
            (server_module, schedule_only),
        ):
            monkeypatch.setattr(
                module,
                "time",
                types.SimpleNamespace(monotonic=time.monotonic, sleep=sleep),
            )

    def test_open_workload_answers_all_and_replays(self, pool, weights):
        # paced arrivals: partial batches leave on the budget timer,
        # bursts fill batches — both wake-ups, no poll
        arrivals = np.concatenate([np.linspace(0.0, 0.15, 12), np.full(20, 0.16)])
        report = serve_workload(
            build_model, OpenWorkload(arrivals=arrivals, rows_per_request=2),
            pool, serve_opts(deadline_ms=40.0),
            initial_weights=weights, keep_responses=True,
        )
        assert report.slo.requests == len(arrivals)
        assert report.slo.rejected == 0 and report.slo.shed == 0
        assert assert_replays(report, pool, {"v0": weights}, rows=2) == len(arrivals)

    def test_closed_workload_answers_all_and_replays(self, pool, weights):
        workload = ClosedWorkload(clients=3, requests_per_client=5,
                                  think_time_s=0.002)
        report = serve_workload(
            build_model, workload, pool, serve_opts(deadline_ms=40.0),
            initial_weights=weights, keep_responses=True,
        )
        assert report.slo.requests == workload.total_requests
        checked = assert_replays(report, pool, {"v0": weights}, rows=1)
        assert checked == workload.total_requests

    def test_one_wake_fills_a_replica_to_worker_depth(self, pool):
        # 96 queued rows, one replica, WORKER_DEPTH=2: a single dispatch
        # pass puts two 32-row batches in flight and leaves the third
        opts = serve_opts(max_batch=32, replicas=1, queue_depth=256)
        assert server_module.WORKER_DEPTH == 2
        ctx = _Context(2, timeout=5.0)
        frontend = server_module._Frontend(
            Communicator(ctx, 0), OpenWorkload(arrivals=np.zeros(96)),
            pool, opts, swaps=[], keep_responses=False,
        )
        frontend.versions.append("v0")
        for i in range(96):
            frontend._submit(i)
        frontend._dispatch()
        assert [b.rows for b in frontend.inflight[1].values()] == [32, 32]
        assert len(frontend.batcher) == 32
        frontend._dispatch()  # at depth: nothing more goes out
        assert frontend.batches == 2

        replica = RpcChannel(Communicator(ctx, 1))
        first, second = replica.recv(0), replica.recv(0)
        assert (first.kind, second.kind) == ("batch", "batch")
        assert len(first.payload["features"]) == 32
        # one result frees one slot; the wake that delivers it refills it
        replica.reply(0, first, "result", {
            "batch_seq": first.seq, "version": "v0",
            "predictions": np.zeros((32, 3)),
        })
        frontend._collect(frontend._sleep_budget())
        assert frontend.completed == 32
        frontend._dispatch()
        assert sorted(frontend.inflight[1]) == [second.seq, replica.recv(0).seq]
        assert len(frontend.batcher) == 0


class TestEntryPointValidation:
    def test_pool_must_be_2d(self, weights):
        with pytest.raises(ValueError, match="at least 2-D"):
            serve_workload(
                build_model,
                ClosedWorkload(clients=1, requests_per_client=1),
                np.zeros(8),
                serve_opts(),
                initial_weights=weights,
            )
