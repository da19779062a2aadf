"""run_experiment: plain keywords reach the experiment's own ``run``."""

import pytest

from repro.comms import CollectiveOptions
from repro.experiments import run_experiment


class TestDispatch:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_flat_kwargs_still_work(self):
        res = run_experiment("fig12", fast=True, nworkers=96)
        assert "96" in res.title

    def test_collective_options_thread_through(self):
        res = run_experiment(
            "ablation_collectives",
            fast=True,
            collective=CollectiveOptions(fusion_bytes=1 << 20),
        )
        base = run_experiment("ablation_collectives", fast=True)
        # a smaller fusion buffer pays more per-piece latency, so the
        # gradient's hierarchical allreduce takes longer
        small_ms = res.rows()[-1]["hierarchical_ms"]
        fused_ms = base.rows()[-1]["hierarchical_ms"]
        assert small_ms > fused_ms
