"""Machine presets."""

import pytest

from repro.cluster import SUMMIT, THETA, get_machine


class TestMachines:
    def test_lookup_case_insensitive(self):
        assert get_machine("Summit") is SUMMIT
        assert get_machine("THETA") is THETA
        with pytest.raises(ValueError, match="unknown machine"):
            get_machine("frontier")

    def test_summit_paper_specs(self):
        assert SUMMIT.workers_per_node == 6  # one rank per V100
        assert SUMMIT.gpu is not None
        assert SUMMIT.power_sample_hz == 1.0  # nvidia-smi
        assert SUMMIT.node_power_w == 2200.0
        assert SUMMIT.filesystem.aggregate_bw_gb_s == 2500.0

    def test_theta_paper_specs(self):
        assert THETA.workers_per_node == 1  # one rank per KNL node
        assert THETA.gpu is None
        assert THETA.cpu.cores == 64
        assert THETA.power_sample_hz == 2.0  # PoLiMEr
        assert THETA.filesystem.aggregate_bw_gb_s == 210.0

    def test_nodes_for(self):
        assert SUMMIT.nodes_for(384) == 64
        assert SUMMIT.nodes_for(385) == 65
        assert THETA.nodes_for(384) == 384
        with pytest.raises(ValueError):
            SUMMIT.nodes_for(0)

    def test_max_workers_covers_paper_runs(self):
        assert SUMMIT.max_workers() >= 3072
        assert THETA.max_workers() >= 384

    def test_worker_flops_benchmark_multipliers(self):
        assert THETA.worker_flops("P1B2") == pytest.approx(
            4.0 * THETA.worker_flops("NT3")
        )
        assert SUMMIT.worker_flops("NT3") == SUMMIT.worker_flops()

    def test_worker_device_power_selects_gpu_or_cpu(self):
        assert SUMMIT.worker_device_power() is SUMMIT.gpu.power
        assert THETA.worker_device_power() is THETA.cpu.power
