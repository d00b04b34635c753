import json

import numpy as np
import pytest

from topclf.cli import main
from topclf.data import Dataset, save_csv


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 60
    features = rng.standard_normal((n, 3))
    labels = rng.random(n) < 0.5
    labels[0], labels[1] = True, False
    path = tmp_path / "data.csv"
    save_csv(Dataset(features, labels), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_row_count(self, tmp_path):
        out = tmp_path / "ex.csv"
        assert run("synth", "--n", 1000, "--seed", 1, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2002  # header + 2n+1 samples

    def test_idempotent_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("synth", "--n", 50, "--seed", 9, "--out", a)
        run("synth", "--n", 50, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_writes_model_and_history(self, data_csv, tmp_path):
        out = tmp_path / "run"
        code = run(
            "train", "--method", "toppush", "--data", data_csv,
            "--label", "label", "--pos", "1", "--iters", 20, "--out", out,
        )
        assert code == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["spec"]["rule"]["kind"] == "top_push"
        assert len(doc["w"]) == 3
        assert "version" in doc
        history = (out / "history.csv").read_text().strip().splitlines()
        assert len(history) == 21

    def test_unknown_method_is_usage_error(self, data_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--method", "svm", "--data", data_csv, "--out", tmp_path)
        assert exc.value.code == 2

    def test_missing_hyperparameters_listed(self, data_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--method", "patmat", "--data", data_csv, "--out", tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tau" in err and "--beta" in err

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        code = run(
            "train", "--method", "toppush", "--data", tmp_path / "nope.csv",
            "--out", tmp_path / "o",
        )
        assert code == 1

    def test_rerun_is_byte_identical(self, data_csv, tmp_path):
        args = (
            "train", "--method", "toppush", "--data", data_csv,
            "--iters", 15, "--seed", 4,
        )
        run(*args, "--out", tmp_path / "r1")
        run(*args, "--out", tmp_path / "r2")
        for name in ("model.json", "history.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestEval:
    def fit(self, data_csv, tmp_path):
        out = tmp_path / "run"
        run(
            "train", "--method", "toppushk", "--k", 3, "--data", data_csv,
            "--iters", 30, "--out", out,
        )
        return out / "model.json"

    def test_report_and_curves(self, data_csv, tmp_path):
        model = self.fit(data_csv, tmp_path)
        out = tmp_path / "eval"
        code = run(
            "eval", "--model", model, "--data", data_csv,
            "--taus", "0.1,0.3", "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["precision"] <= 1.0
        assert "positives_at_quantile@0.1" in report["criteria"]
        assert "positives_at_np@0.3" in report["criteria"]
        assert (out / "pr_curve.csv").exists()
        assert (out / "ptau_curve.csv").exists()

    def test_dimension_mismatch(self, data_csv, tmp_path):
        model = self.fit(data_csv, tmp_path)
        rng = np.random.default_rng(1)
        other = tmp_path / "other.csv"
        save_csv(Dataset(rng.standard_normal((10, 5)), rng.random(10) < 0.5), other)
        code = run("eval", "--model", model, "--data", other, "--out", tmp_path / "e2")
        assert code == 1

    @pytest.mark.parametrize("command", ["eval", "curve"])
    @pytest.mark.parametrize("taus", ["abc", "0.5,0.5", "0,0.1", "1.5", ","])
    def test_bad_taus_are_usage_errors(self, data_csv, tmp_path, capsys, command, taus):
        model = self.fit(data_csv, tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(
                command, "--model", model, "--data", data_csv, "--taus", taus,
                "--out", tmp_path / "e",
            )
        assert exc.value.code == 2
        assert "--taus" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_curve_command_skips_report(self, data_csv, tmp_path):
        model = self.fit(data_csv, tmp_path)
        out = tmp_path / "curves"
        assert run("curve", "--model", model, "--data", data_csv, "--out", out) == 0
        assert (out / "pr_curve.csv").exists()
        assert not (out / "report.json").exists()


class TestReproduce:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "worked_example.csv"
        assert run("reproduce", "--n", 2000, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 5 methods x 2 points
        assert "toppush" in capsys.readouterr().out


class TestGrid:
    def test_single_point_grid(self, data_csv, tmp_path):
        out = tmp_path / "grid"
        code = run(
            "grid", "--method", "toppush", "--data", data_csv,
            "--lambdas", 0.001, "--iters", 15, "--out", out,
        )
        assert code == 0
        records = json.loads((out / "run_records.json").read_text())
        assert len(records) == 1
        assert records[0]["params"] == {"lambda": 0.001}

    def test_manifest_mode(self, tmp_path):
        manifest = {
            "datasets": [{"name": "synth", "format": "synth", "n": 120, "seed": 1}],
            "methods": [{"method": "toppush"}],
            "grid": {"lambdas": [0.0]},
            "train": {"iterations": 15},
            "split": {"seed": 2},
            "select": {"criterion": "positives_at_top"},
            "criteria_taus": [0.2],
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "exp"
        assert run("grid", "--manifest", mpath, "--out", out) == 0
        assert (out / "rank_table.csv").exists()

    def test_unknown_manifest_key_is_usage_error(self, tmp_path, capsys):
        manifest = {
            "datasets": [{"name": "synth", "format": "synth", "n": 40, "seed": 1}],
            "methods": [{"method": "toppush"}],
            "train": {"iteratons": 50},
            "select": {"criterion": "positives_at_top"},
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "exp")
        assert exc.value.code == 2
        assert "'iteratons'" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("flag", ["--k", "--beta", "--lambda"])
    def test_swept_hyperparameters_are_not_flags(self, data_csv, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run("grid", "--method", "toppushk", "--data", data_csv, flag, 1, "--out", tmp_path)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "select",
        [
            ["--criterion", "positives_at_tpo"],
            ["--criterion", "positives_at_np"],
            ["--criterion", "positives_at_np", "--criterion-tau", 1.5],
            ["--criterion", "positives_at_top", "--criterion-tau", 0],
        ],
    )
    def test_bad_criterion_is_usage_error_before_loading(self, tmp_path, select):
        with pytest.raises(SystemExit) as exc:
            run(
                "grid", "--method", "toppush", "--data", tmp_path / "missing.csv",
                *select, "--out", tmp_path / "g",
            )
        assert exc.value.code == 2

    def test_bad_manifest_criterion_is_usage_error(self, tmp_path, capsys):
        manifest = {
            "datasets": [{"name": "synth", "format": "synth", "n": 40, "seed": 1}],
            "methods": [{"method": "toppush"}],
            "select": {"criterion": "positives_at_tpo"},
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "exp")
        assert exc.value.code == 2
        assert "positives_at_tpo" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_needs_method_or_manifest(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("grid", "--out", tmp_path)
        assert exc.value.code == 2
