"""ExperimentConfig: typed run configuration and dispatcher compatibility."""

import pytest

from repro.comms import CollectiveOptions
from repro.experiments import ExperimentConfig, run_experiment


class TestConfigObject:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.fast is True
        assert cfg.nworkers is None and cfg.method is None
        assert cfg.extra == {}

    def test_frozen(self):
        with pytest.raises(Exception):
            ExperimentConfig().fast = False

    def test_from_kwargs_splits_known_and_extra(self):
        cfg = ExperimentConfig.from_kwargs(
            fast=False, nworkers=96, method="sharded", total_epochs=4
        )
        assert cfg.fast is False
        assert cfg.nworkers == 96
        assert cfg.method == "sharded"
        assert cfg.extra == {"total_epochs": 4}

    def test_legacy_kwargs_round_trip(self):
        opts = CollectiveOptions(algorithm="ring")
        cfg = ExperimentConfig(nworkers=48, collective=opts, extra={"k": 1})
        assert cfg.legacy_kwargs() == {"nworkers": 48, "collective": opts, "k": 1}

    def test_legacy_kwargs_omits_unset_knobs(self):
        assert ExperimentConfig().legacy_kwargs() == {}

    def test_evolve(self):
        cfg = ExperimentConfig(nworkers=48)
        slow = cfg.evolve(fast=False)
        assert slow.fast is False and slow.nworkers == 48
        assert cfg.fast is True  # original untouched


class TestDispatch:
    def test_config_and_kwargs_are_mutually_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            run_experiment("fig12", config=ExperimentConfig(), nworkers=96)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_config_style_reaches_config_aware_experiment(self):
        res = run_experiment("fig12", config=ExperimentConfig(fast=True, nworkers=96))
        assert res.experiment_id == "fig12"
        assert "96" in res.title

    def test_flat_kwargs_still_work(self):
        res = run_experiment("fig12", fast=True, nworkers=96)
        assert "96" in res.title

    def test_flat_and_config_styles_agree(self):
        a = run_experiment("ablation_collectives", fast=True)
        b = run_experiment("ablation_collectives", config=ExperimentConfig(fast=True))
        assert a.panels == b.panels

    def test_collective_options_thread_through(self):
        cfg = ExperimentConfig(
            fast=True, collective=CollectiveOptions(fusion_bytes=1 << 20)
        )
        res = run_experiment("ablation_collectives", config=cfg)
        base = run_experiment("ablation_collectives", fast=True)
        # a smaller fusion buffer pays more per-piece latency, so the
        # gradient's hierarchical allreduce takes longer
        small_ms = res.rows()[-1]["hierarchical_ms"]
        fused_ms = base.rows()[-1]["hierarchical_ms"]
        assert small_ms > fused_ms
