"""The serial pipeline, and the registry's rejection of unknown names."""

import numpy as np
import pytest

from repro.candle import get_benchmark, run_benchmark


class TestRegistry:
    def test_unknown_still_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("p4b1")


class TestPipeline:
    def test_three_phases_reported(self, tmp_path):
        b = get_benchmark("nt3", scale=0.004, sample_scale=0.1)
        paths = b.write_files(tmp_path, rng=np.random.default_rng(0))
        r = run_benchmark(b, data_paths=paths, load_method="chunked", epochs=2)
        assert r.load_s > 0 and r.train_s > 0 and r.eval_s > 0
        assert r.total_s == pytest.approx(r.load_s + r.train_s + r.eval_s)
        assert "val_loss" in r.history

    def test_scaler_applied(self):
        b = get_benchmark("p1b2", scale=0.01, sample_scale=0.1)
        with_scale = run_benchmark(b, scaler="maxabs", epochs=2, seed=3)
        without = run_benchmark(b, scaler=None, epochs=2, seed=3)
        # both run; scaled inputs change the training trajectory
        assert with_scale.history["loss"] != without.history["loss"]

    def test_dominant_phase_query(self):
        b = get_benchmark("nt3", scale=0.004, sample_scale=0.1)
        r = run_benchmark(b, epochs=2)
        assert r.dominant_phase() in ("load", "train", "eval")

    def test_defaults_come_from_table1(self):
        b = get_benchmark("p1b2", scale=0.01, sample_scale=0.05)
        r = run_benchmark(b, epochs=1)
        assert r.benchmark == "P1B2"


def test_pipeline_handles_p1b3_conv_variant():
    b = get_benchmark("p1b3", scale=0.02, sample_scale=0.005, conv=True)
    r = run_benchmark(b, epochs=1, scaler=None)
    assert r.train_s > 0
    assert "mae" in r.eval_metrics

