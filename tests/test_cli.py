import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import save_libsvm
from test_experiment import GRID_ARTIFACTS, grid_artifacts

import topclf
from topclf import experiment
from topclf.cli import build_parser, main
from topclf.data import Dataset, load_csv, save_csv, synth_example
from topclf.evaluation import CRITERIA_TAUS
from topclf.objective import ObjectiveSpec
from topclf.solver import TrainConfig
from topclf.threshold import ThresholdRule


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


def test_import_loads_only_numpy_and_the_standard_library():
    # a fresh interpreter, so that no other test's imports count; modules the
    # interpreter loaded at start-up (site hooks) are not the import's doing
    code = (
        "import sys; before = set(sys.modules); import topclf.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(topclf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    packages = {name.partition(".")[0] for name in out.split()}
    # dunder entries such as multiprocessing's __mp_main__ alias __main__
    foreign = {
        name for name in packages - set(sys.stdlib_module_names) - {"numpy", "topclf"}
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert not foreign


# each command's arguments with input files that do not exist, which exit 1 once read
MISSING_INPUTS = {
    "train": ["train", "--method", "toppush", "--data", "missing.csv"],
    "eval": ["eval", "--model", "missing.json", "--data", "missing.csv"],
    "grid": ["grid", "--manifest", "missing.json"],
}


class TestOutDir:
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    @pytest.mark.parametrize("command", sorted(MISSING_INPUTS))
    def test_file_in_the_way_is_usage_error_before_any_input(
        self, tmp_path, monkeypatch, capsys, command, out
    ):
        monkeypatch.chdir(tmp_path)
        taken = tmp_path / "taken"
        taken.write_bytes(b"x,label\n")
        with pytest.raises(SystemExit) as exc:
            run(*MISSING_INPUTS[command], "--out", out)
        assert exc.value.code == 2
        assert f"--out {out}: taken exists and is not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_bytes() == b"x,label\n"

    @pytest.mark.parametrize("command", sorted(MISSING_INPUTS))
    def test_existing_directory_passes_to_the_inputs(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o").mkdir()
        assert run(*MISSING_INPUTS[command], "--out", "o") == 1


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

    def test_bad_n_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--n", 0, "--out", tmp_path / "ex.csv")
        assert exc.value.code == 2
        assert "n must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "ex.csv").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--n", 10, "--seed", -1, "--out", tmp_path / "ex.csv")
        assert exc.value.code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "ex.csv").exists()


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "grill", "--tau", 2], "requires tau in (0, 1)"),
            (["--method", "toppushk", "--k", 0], "requires a positive integer k"),
            (["--method", "toppush", "--lambda", -1], "lambda must be non-negative"),
            (["--method", "toppush", "--iters", 0], "iterations must be positive"),
            (["--method", "toppush", "--minibatches", 0], "n_minibatch must be positive"),
            (["--method", "toppush", "--step-size", -1], "step_size must be non-negative"),
            (["--method", "toppush", "--seed", -1], "seed must be non-negative, got -1"),
            (["--method", "toppush", "--k", 5], "top_push takes no k parameter"),
        ],
    )
    def test_bad_flag_value_is_usage_error_before_loading(self, tmp_path, capsys, flags, message):
        # a missing data file would exit 1, so exit 2 shows the check comes first
        with pytest.raises(SystemExit) as exc:
            run("train", *flags, "--data", tmp_path / "missing.csv", "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_too_many_minibatches_for_the_data_is_runtime_error(self, data_csv, tmp_path):
        code = run(
            "train", "--method", "toppush", "--data", data_csv, "--minibatches", 40,
            "--out", tmp_path / "o",
        )
        assert code == 1

    def test_infeasible_minibatch_point_is_runtime_error_before_any_step(self, tmp_path, capsys):
        # the smallest of 4 minibatches of the 31 negatives holds 7 of them
        data = tmp_path / "synth.csv"
        save_csv(synth_example(30, seed=1), data)
        code = run(
            "train", "--method", "toppushk", "--k", 8, "--minibatches", 4, "--iters", 1,
            "--data", data, "--out", tmp_path / "o",
        )
        assert code == 1
        assert "k=8 exceeds the 7 negative samples" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_class_data_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "pos.svm"
        data.write_text("+1 1:1\n+1 2:1\n")
        with pytest.warns(UserWarning, match="one class"):
            code = run(
                "train", "--method", "toppush", "--format", "libsvm", "--data", data,
                "--out", tmp_path / "o",
            )
        assert code == 1
        assert "need at least one positive and one negative sample" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, data_csv, tmp_path):
        args = (
            "train", "--method", "toppush", "--data", data_csv,
            "--iters", 15, "--seed", 4,
        )
        run(*args, "--out", tmp_path / "r1")
        run(*args, "--out", tmp_path / "r2")
        for name in ("model.json", "history.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_parser_defaults_are_the_library_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--method", "toppush", "--data", "d", "--out", "o"])
        cfg, spec = TrainConfig(), ObjectiveSpec(rule=ThresholdRule("top_push"))
        assert (args.iters, args.minibatches, args.seed, args.init, args.step_size) == (
            cfg.iterations, cfg.n_minibatch, cfg.seed, cfg.init, cfg.adam.step_size
        )
        assert (args.lam, args.loss) == (spec.lam, spec.loss.kind)
        args = parser.parse_args(["eval", "--model", "m", "--data", "d", "--out", "o"])
        assert args.taus == CRITERIA_TAUS


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

    def test_bad_cell_names_its_line(self, data_csv, tmp_path, capsys):
        model = self.fit(data_csv, tmp_path)
        lines = data_csv.read_text().splitlines()
        lines[2] = "foo" + lines[2][lines[2].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run("eval", "--model", model, "--data", bad, "--out", tmp_path / "e")
        assert code == 1
        assert f"{bad}:3: non-numeric feature cell" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("taus", ["abc", "0.5,0.5", "0,0.1", "1.5", ","])
    def test_bad_taus_are_usage_errors(self, data_csv, tmp_path, capsys, taus):
        model = self.fit(data_csv, tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(
                "eval", "--model", model, "--data", data_csv, "--taus", taus,
                "--out", tmp_path / "e",
            )
        assert exc.value.code == 2
        assert "--taus" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_curve_command_is_gone(self, data_csv, tmp_path):
        # eval writes both curve CSVs; there is no second command for them
        model = self.fit(data_csv, tmp_path)
        out = tmp_path / "curves"
        with pytest.raises(SystemExit) as exc:
            run("curve", "--model", model, "--data", data_csv, "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "positive, message",
        [
            (False, "criterion undefined without positive samples"),
            (True, "positives_at_top undefined without negative samples"),
        ],
        ids=["all-negative", "all-positive"],
    )
    def test_one_class_file_is_runtime_error(self, data_csv, tmp_path, capsys, positive, message):
        model = self.fit(data_csv, tmp_path)
        d = load_csv(data_csv, "label", "1")
        one_class = tmp_path / "one_class.csv"
        save_csv(d.subset(d.pos_idx if positive else d.neg_idx), one_class)
        with pytest.warns(UserWarning, match="one class"):
            code = run("eval", "--model", model, "--data", one_class, "--out", tmp_path / "e")
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


class TestLibsvm:
    def test_train_and_eval_match_the_csv_of_the_same_data(self, data_csv, tmp_path):
        svm = save_libsvm(load_csv(data_csv, "label", "1"), tmp_path / "data.svm")
        for fmt, path in (("csv", data_csv), ("libsvm", svm)):
            data, out = ("--format", fmt, "--data", path), tmp_path / fmt
            code = run("train", "--method", "toppushk", "--k", 2, "--iters", 20, *data,
                       "--out", out / "run")
            assert code == 0
            assert run("eval", "--model", out / "run" / "model.json", *data, "--out", out) == 0
        for name in ("run/model.json", "run/history.csv", "report.json", "pr_curve.csv",
                     "ptau_curve.csv"):
            libsvm, csv = (tmp_path / fmt / name for fmt in ("libsvm", "csv"))
            assert libsvm.read_bytes() == csv.read_bytes()

    def fit_three_features(self, tmp_path):
        data = tmp_path / "train.svm"
        data.write_text("+1 1:1 3:0.5\n-1 2:1\n+1 1:0.8 2:0.1\n-1 1:-0.2 3:-1\n")
        code = run("train", "--method", "toppush", "--format", "libsvm", "--data", data,
                   "--iters", 10, "--out", tmp_path / "run")
        assert code == 0
        return tmp_path / "run" / "model.json"

    def test_eval_pads_a_file_that_omits_the_last_index(self, tmp_path):
        model = self.fit_three_features(tmp_path)
        narrow = tmp_path / "narrow.svm"
        narrow.write_text("+1 1:1\n-1 2:1\n+1 1:0.5 2:0.2\n")
        padded = tmp_path / "padded.csv"
        padded.write_text("x0,x1,x2,label\n1,0,0,1\n0,1,0,0\n0.5,0.2,0,1\n")
        assert run("eval", "--model", model, "--format", "libsvm", "--data", narrow,
                   "--out", tmp_path / "svm") == 0
        assert run("eval", "--model", model, "--data", padded, "--out", tmp_path / "csv") == 0
        for name in ("report.json", "pr_curve.csv", "ptau_curve.csv"):
            assert (tmp_path / "svm" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()

    @pytest.mark.parametrize(
        "fmt, text, m",
        [("libsvm", "+1 1:1 4:1\n-1 2:1\n", 4), ("csv", "x0,x1,label\n1,0,1\n0,1,0\n", 2)],
        ids=["libsvm-index-above-width", "csv-narrower"],
    )
    def test_eval_refuses_other_widths(self, tmp_path, capsys, fmt, text, m):
        model = self.fit_three_features(tmp_path)
        data = tmp_path / f"eval.{fmt}"
        data.write_text(text)
        code = run("eval", "--model", model, "--format", fmt, "--data", data,
                   "--out", tmp_path / "e")
        assert code == 1
        assert f"model expects 3 features, dataset has {m}" in capsys.readouterr().err


class TestReproduce:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "worked_example.csv"
        assert run("reproduce", "--n", 2000, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 5 methods x 2 points
        assert "toppush" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", 10], "n must be at least 1000"),
            (["--tau", 2], "requires tau in (0, 1)"),
            (["--beta", 0], "requires beta > 0"),
            (["--k", 0], "requires a positive integer k"),
            (["--n", 1000, "--k", 1003], "k=1003 exceeds the 1001 negative samples"),
            (["--n", 1000, "--tau", 0.0001], "tau=0.0001 over 2001 samples"),
        ],
    )
    def test_bad_flag_value_is_usage_error_before_any_data(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # a data set made anyway would exit 1, so exit 2 shows the check comes first
        def fail(*args):
            raise AssertionError("the worked-example data was made")

        monkeypatch.setattr(experiment, "synth_example", fail)
        with pytest.raises(SystemExit) as exc:
            run("reproduce", *flags, "--out", tmp_path / "w.csv")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()


class TestGrid:
    def test_single_point_grid(self, data_csv, tmp_path):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "data", "path": str(data_csv), "label": "label", "pos": "1"}],
            "methods": [{"method": "toppush"}],
            "grid": {"lambdas": [0.001]},
            "train": {"iterations": 15},
            "select": {"criterion": "positives_at_top"},
        }))
        out = tmp_path / "grid"
        assert run("grid", "--manifest", mpath, "--out", out) == 0
        records = json.loads((out / "run_records.json").read_text())
        assert len(records) == 1
        assert records[0]["params"] == {"lambda": 0.001}
        assert sorted(p.name for p in out.iterdir()) == sorted(GRID_ARTIFACTS)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_objective_names_the_grid_point(self, tmp_path, capsys, jobs):
        # the data of test_non_finite_objective_aborts, four rows of each class
        path = tmp_path / "big.csv"
        path.write_text("x,label\n" + "-1e200,1\n" * 4 + "1e200,0\n" * 4)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "big", "path": str(path), "label": "label", "pos": "1"}],
            "methods": [{"method": "toppush"}],
            "grid": {"lambdas": [0.0, 0.1]},
            "train": {"iterations": 3, "init": "uniform", "seed": 0},
            "loss": "quadratic_hinge",
            "select": {"criterion": "positives_at_top"},
        }))
        with np.errstate(over="ignore"):
            code = run("grid", "--manifest", mpath, "--jobs", jobs, "--out", tmp_path / "g")
        assert code == 1
        err = capsys.readouterr().err
        assert (
            "error: dataset 'big', method toppush, grid point lambda=0: "
            "objective became non-finite at iteration 0 (value inf)"
        ) in err
        assert not (tmp_path / "g").exists()

    def test_invalid_manifest_json_is_usage_error(self, tmp_path, capsys):
        mpath = tmp_path / "manifest.json"
        mpath.write_text('{"datasets": [{"name": "s", "format": "synth", "n": 40}],\n  "methods": [{')
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "g")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"manifest {mpath} is not valid JSON" in err
        assert "line 2 column 16" in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "synth", "format": "synth", "n": 40, "seed": 1}],
            "methods": [{"method": "toppush"}],
            "select": {"criterion": "positives_at_top"},
        }))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--jobs", jobs, "--out", tmp_path / "g")
        assert exc.value.code == 2
        assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--iters", 0, "iterations must be positive"),
            ("--minibatches", 0, "n_minibatch must be positive"),
            ("--step-size", -1, "step_size must be non-negative"),
            ("--seed", -1, "seed must be non-negative, got -1"),
        ],
    )
    def test_bad_train_flag_is_the_manifest_usage_error(
        self, tmp_path, capsys, flag, value, message
    ):
        # the `train` flag and its manifest `train` key go through one check
        key = {
            "--iters": {"iterations": value},
            "--minibatches": {"n_minibatch": value},
            "--step-size": {"adam": {"step_size": value}},
            "--seed": {"seed": value},
        }[flag]
        missing = tmp_path / "missing.csv"
        with pytest.raises(SystemExit) as exc:
            run("train", "--method", "toppush", "--data", missing, flag, value,
                "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "gone", "path": str(missing), "label": "y", "pos": "1"}],
            "methods": [{"method": "toppush"}],
            "train": key,
            "select": {"criterion": "positives_at_top"},
        }))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "g")
        assert exc.value.code == 2
        assert f"invalid manifest value: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "g").exists()

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("select"), "missing manifest key 'select'"),
            (lambda m: m["datasets"][0].pop("n"), "missing manifest key 'n'"),
            (lambda m: m["methods"][0].pop("method"), "missing manifest key 'method'"),
            (lambda m: m["methods"].append({"method": "toppushk"}), "k=15 exceeds"),
            (lambda m: m.update(select="positives_at_top"), "select must be a JSON object"),
            (
                lambda m: m.update(split={"train_frac": 0.8, "valid_frac": 0.0, "test_frac": 0.2}),
                "dataset 'synth': split would leave the validation part empty",
            ),
            (
                lambda m: m["datasets"][0].update(format="parquet"),
                "unknown dataset format 'parquet' in datasets[0]",
            ),
            (
                lambda m: m["datasets"][0].update(n=2),
                "dataset 'synth': the test part has no positive samples",
            ),
        ],
        ids=["select", "n", "method", "infeasible-k", "select-type", "empty-split", "format",
             "no-test-positive"],
    )
    def test_missing_key_or_infeasible_point_is_usage_error(
        self, tmp_path, capsys, edit, message
    ):
        manifest = {
            "datasets": [{"name": "synth", "format": "synth", "n": 20, "seed": 1}],
            "methods": [{"method": "toppush"}],
            "select": {"criterion": "positives_at_top"},
        }
        edit(manifest)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "exp")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["methods"].append({"method": "svm"}), "unknown method 'svm'"),
            (lambda m: m.update(train={"iterations": 0}), "iterations must be positive"),
            (lambda m: m.update(split={"train_frac": 0.9}), "fractions must sum to 1"),
            (lambda m: m.update(loss="square"), "unknown surrogate loss 'square'"),
            (lambda m: m.update(datasets=[]), "manifest key 'datasets' must list at least one"),
            (lambda m: m.update(methods=[]), "manifest key 'methods' must list at least one"),
            (
                lambda m: m.update(methods=[{"method": "patmat", "tau": 2}]),
                "methods[0]: surrogate_quantile requires tau in (0, 1), got 2",
            ),
            (lambda m: m.update(train={"seed": -1}), "seed must be non-negative, got -1"),
            (lambda m: m.update(split={"seed": -1}), "seed must be non-negative, got -1"),
        ],
        ids=["method", "train", "split", "loss", "no-datasets", "no-methods", "method-tau",
             "train-seed", "split-seed"],
    )
    def test_bad_manifest_value_is_usage_error(self, tmp_path, capsys, edit, message):
        manifest = {
            "datasets": [{"name": "gone", "path": str(tmp_path / "missing.csv"),
                          "label": "y", "pos": "1"}],
            "methods": [{"method": "toppush"}],
            "select": {"criterion": "positives_at_top"},
        }
        edit(manifest)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "exp")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"path": "missing.csv", "label": "y", "pos": "1"}, "no such file: missing.csv"),
            ({"format": "synth", "n": 20, "seed": -1},
             "dataset 's': seed must be non-negative, got -1"),
            ({"format": "synth", "n": 0}, "dataset 's': n must be >= 1, got 0"),
        ],
        ids=["missing-file", "synth-seed", "synth-n"],
    )
    def test_unloadable_dataset_is_runtime_error(
        self, tmp_path, capsys, monkeypatch, entry, message
    ):
        monkeypatch.chdir(tmp_path)
        manifest = {
            "datasets": [{"name": "s", **entry}],
            "methods": [{"method": "toppush"}],
            "select": {"criterion": "positives_at_top"},
        }
        Path("manifest.json").write_text(json.dumps(manifest))
        assert run("grid", "--manifest", "manifest.json", "--out", "exp") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("exp").exists()

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

    @pytest.mark.parametrize(
        "select",
        [
            {"criterion": "positives_at_tpo"},
            {"criterion": "positives_at_np"},
            {"criterion": "positives_at_np", "tau": 1.5},
            {"criterion": "positives_at_top", "tau": 0},
        ],
    )
    def test_bad_criterion_is_usage_error_before_loading(self, tmp_path, select):
        # a missing data file would exit 1, so exit 2 shows the check comes first
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "gone", "path": str(tmp_path / "missing.csv"),
                          "label": "y", "pos": "1"}],
            "methods": [{"method": "toppush"}],
            "select": select,
        }))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "g")
        assert exc.value.code == 2
        assert not (tmp_path / "g").exists()

    def test_tau_on_positives_at_top_is_usage_error(self, data_csv, tmp_path, capsys):
        # a tau there used to add positives_at_*@tau columns to rank_table.csv
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "data", "path": str(data_csv), "label": "label", "pos": "1"}],
            "methods": [{"method": "toppush"}],
            "select": {"criterion": "positives_at_top", "tau": 0.5},
        }))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, "--out", tmp_path / "g")
        assert exc.value.code == 2
        assert "select.tau" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flag", ["--k", "--beta", "--lambda"])
    def test_swept_hyperparameters_are_not_flags(self, tmp_path, flag):
        # grid values come from the manifest's `grid`; a valid manifest shows the flag is the fault
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "synth", "format": "synth", "n": 40, "seed": 1}],
            "methods": [{"method": "toppushk"}],
            "grid": {"ks": [1]},
            "train": {"iterations": 5},
            "select": {"criterion": "positives_at_top"},
        }))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, flag, 1, "--out", tmp_path / "g")
        assert exc.value.code == 2
        assert not (tmp_path / "g").exists()

    def test_needs_manifest(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("grid", "--out", tmp_path / "g")
        assert exc.value.code == 2
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--iters", 5],
            ["--betas", 0.1],
            ["--criterion", "positives_at_np"],
            ["--method", "toppush", "--data", "x.csv"],
        ],
        ids=["iters", "betas", "criterion", "method-data"],
    )
    def test_grid_rejects_flag_mode_flags(self, tmp_path, flags):
        # each flag names a manifest key; accepted beside --manifest it would be ignored
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "datasets": [{"name": "synth", "format": "synth", "n": 40, "seed": 1}],
            "methods": [{"method": "toppush"}],
            "train": {"iterations": 5},
            "select": {"criterion": "positives_at_top"},
        }))
        with pytest.raises(SystemExit) as exc:
            run("grid", "--manifest", mpath, *flags, "--out", tmp_path / "g")
        assert exc.value.code == 2
        assert not (tmp_path / "g").exists()
