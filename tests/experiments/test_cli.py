"""The two CLIs: repro.experiments and repro.candle."""

import os

import pytest

from repro.candle.__main__ import main as candle_main
from repro.experiments.__main__ import main as experiments_main


class TestExperimentsCli:
    def test_runs_named_experiment(self, capsys):
        assert experiments_main(["table1", "--quiet"]) == 0

    def test_writes_markdown(self, tmp_path, capsys):
        md = tmp_path / "EXP.md"
        assert experiments_main(["table1", "table3", "--quiet", "--write-md", str(md)]) == 0
        text = md.read_text()
        assert "paper vs measured" in text
        assert "table3" in text
        assert "| table1 |" in text

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig999"])

    def test_prints_tables_by_default(self, capsys):
        experiments_main(["table1"])
        out = capsys.readouterr().out
        assert "NT3" in out and "steps_per_epoch" in out


class TestCandleCli:
    def test_generates_files(self, tmp_path, capsys):
        assert candle_main(["nt3", "--scale", "0.005", "--out", str(tmp_path)]) == 0
        assert os.path.exists(tmp_path / "nt3_train.csv")
        assert os.path.exists(tmp_path / "nt3_test.csv")

    def test_all_benchmarks(self, tmp_path, capsys):
        assert candle_main(["all", "--scale", "0.004", "--out", str(tmp_path)]) == 0
        for name in ("nt3", "p1b1", "p1b2", "p1b3"):
            assert os.path.exists(tmp_path / f"{name}_train.csv")

    def test_describe_mode_writes_nothing(self, tmp_path, capsys):
        assert candle_main(["nt3", "--describe", "--out", str(tmp_path)]) == 0
        assert not os.listdir(tmp_path)
        assert "60483" in capsys.readouterr().out

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            candle_main(["p7", "--describe"])

    def test_generated_files_load_back(self, tmp_path, capsys):
        from repro.frame import read_csv

        candle_main(["p1b2", "--scale", "0.005", "--out", str(tmp_path)])
        df = read_csv(str(tmp_path / "p1b2_train.csv"), header=None, low_memory=False)
        assert df.shape[0] >= 32
