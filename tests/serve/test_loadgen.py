"""Load-generator traces: statistics and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import OpenWorkload, poisson_arrivals


class TestPoisson:
    def test_sorted_within_window(self):
        times = poisson_arrivals(qps=200.0, duration_s=2.0, seed=1)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 2.0

    def test_rate_is_roughly_right(self):
        times = poisson_arrivals(qps=500.0, duration_s=4.0, seed=2)
        # Poisson(2000): mean 2000, std ~45 — 5 sigma bounds
        assert 1775 <= len(times) <= 2225

    def test_deterministic_by_seed(self):
        a = poisson_arrivals(100.0, 1.0, seed=3)
        b = poisson_arrivals(100.0, 1.0, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, poisson_arrivals(100.0, 1.0, seed=4))

    @pytest.mark.parametrize("qps, duration", [(0, 1.0), (-1, 1.0), (10, 0)])
    def test_validation(self, qps, duration):
        with pytest.raises(ValueError):
            poisson_arrivals(qps, duration)


class TestWorkloads:
    def test_open_workload_properties(self):
        w = OpenWorkload(arrivals=np.array([0.0, 0.5, 2.0]), rows_per_request=3)
        assert w.total_requests == 3
        assert w.duration_s == 2.0

    def test_open_workload_validation(self):
        with pytest.raises(ValueError, match="rows_per_request must be positive"):
            OpenWorkload(arrivals=np.array([0.0]), rows_per_request=0)
        with pytest.raises(ValueError, match="at least one arrival"):
            OpenWorkload(arrivals=np.array([]))

