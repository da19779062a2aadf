"""Property: the front-end answers every admitted request exactly once.

Oracle: the batch dispatch log. Over random arrival traces (gaps of 0 ms
are simultaneous arrivals), both admission policies, shallow queues,
small batches and one or two replicas, every request id the log holds
appears once, the log's ids are the requests completed and the responses
kept, those plus the refused ones are the requests sent, and each kept
response is, byte for byte, what the served model predicts for its batch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Sequential
from repro.nn.layers import Dense
from repro.serve import (
    ADMISSION_POLICIES,
    OpenWorkload,
    ServeOptions,
    install_weights,
    request_features,
    serve_workload,
)

FEATURES = 5

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=20, derandomize=True, deadline=None)


def build_model() -> Sequential:
    model = Sequential()
    model.add(Dense(6, activation="relu"))
    model.add(Dense(2))
    model.build((FEATURES,), seed=9)
    return model


POOL = np.random.default_rng(4).normal(size=(32, FEATURES))
WEIGHTS = {k: v + 0.5 for k, v in build_model().named_parameters().items()}


@FUZZ
@given(
    # mostly simultaneous: a burst is what fills a shallow queue
    gaps_ms=st.lists(st.sampled_from([0, 0, 0, 1, 4]), min_size=1, max_size=40),
    rows=st.integers(1, 3),
    admission=st.sampled_from(ADMISSION_POLICIES),
    queue_depth=st.integers(1, 6),
    max_batch=st.integers(1, 8),
    replicas=st.sampled_from([1, 2]),
)
def test_every_admitted_request_is_answered_once(
    gaps_ms, rows, admission, queue_depth, max_batch, replicas
):
    arrivals = np.cumsum(np.asarray(gaps_ms, dtype=np.float64)) / 1000.0
    options = ServeOptions(
        max_batch=max_batch, deadline_ms=10.0, queue_depth=queue_depth,
        replicas=replicas, admission=admission,
    )
    report = serve_workload(
        build_model, OpenWorkload(arrivals, rows), POOL, options,
        initial_weights=WEIGHTS, keep_responses=True,
    )
    admitted = [rid for _, req_ids in report.batch_log for rid in req_ids]
    assert len(admitted) == len(set(admitted))
    assert len(admitted) == report.slo.requests
    assert len(admitted) + report.slo.rejected == len(arrivals)
    assert sorted(report.responses) == sorted(admitted)

    reference = build_model()
    install_weights(reference, WEIGHTS)
    for version, req_ids in report.batch_log:
        feats = np.concatenate([request_features(POOL, rid, rows) for rid in req_ids])
        expected = reference.predict(feats, batch_size=len(feats))
        for i, rid in enumerate(req_ids):
            got_version, got = report.responses[rid]
            want = expected[i * rows:(i + 1) * rows]
            assert got_version == version == "v0"
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
