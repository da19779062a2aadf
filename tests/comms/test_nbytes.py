"""payload_nbytes: recursive byte accounting for timeline events."""

import numpy as np
import pytest

from repro.mpi.communicator import payload_nbytes


class TestScalars:
    def test_arrays_report_real_bytes(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_bytes_and_strings(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_numbers(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(3.5) == 8
        assert payload_nbytes(True) == 8

    def test_opaque_objects_get_flat_estimate(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) == 64


class TestContainers:
    """The fix: nested payloads count their contents, not the container."""

    def test_list_of_arrays(self):
        arrays = [np.zeros(10), np.zeros(5)]
        assert payload_nbytes(arrays) == 80 + 40

    def test_nested_lists(self):
        assert payload_nbytes([[np.zeros(10)], [np.zeros(5), np.zeros(5)]]) == 160

    def test_dict_counts_keys_and_values(self):
        weights = {"w": np.zeros(10), "b": np.zeros(2)}
        assert payload_nbytes(weights) == 1 + 80 + 1 + 16

    def test_dict_of_lists_of_arrays(self):
        payload = {"layers": [np.zeros(4), np.zeros(4)]}
        assert payload_nbytes(payload) == len("layers") + 64

    def test_tuple_and_set(self):
        assert payload_nbytes((np.zeros(2), np.zeros(2))) == 32
        assert payload_nbytes({1, 2, 3}) == 24

    def test_empty_containers_fall_back(self):
        assert payload_nbytes([]) == 8
        assert payload_nbytes({}) == 8

    def test_broadcast_weights_payload_is_dominated_by_arrays(self):
        # the regression this fix targets: a model's weight list was
        # billed at the flat 64-byte estimate instead of megabytes
        weights = [np.zeros((100, 100)), np.zeros(100)]
        nbytes = payload_nbytes(weights)
        assert nbytes == 100 * 100 * 8 + 100 * 8
        assert nbytes > 64


class TestOpsIntegration:
    def test_ops_nbytes_is_payload_nbytes(self):
        from repro.hvd import ops

        assert ops._nbytes is payload_nbytes

    def test_broadcast_records_nested_bytes(self):
        from repro import hvd
        from repro.telemetry import Tracer

        tracer = Tracer()
        hvd.init(tracer=tracer)
        try:
            hvd.broadcast([np.zeros(1000), np.zeros(1000)], name="weights")
            [span] = tracer.spans_named("broadcast")
            assert span.attrs["bytes"] == 16_000
        finally:
            hvd.shutdown()
