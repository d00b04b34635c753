import json
from pathlib import Path

import numpy as np
import pytest

from topclf.data import Dataset, SplitSpec, save_csv, split, synth_example
from topclf.experiment import (
    FIXED_LAMBDA,
    Grid,
    ManifestError,
    RunRecord,
    SelectCriterion,
    grid_points,
    grid_search,
    method_id,
    rank_table,
    reproduce_worked_example,
    run_manifest,
    timing_probe,
    zero_audit,
)
from topclf.objective import ObjectiveSpec
from topclf.solver import TrainConfig
from topclf.threshold import rule_from_token


def template(token, tau=0.2, beta=1.0, k=1):
    return ObjectiveSpec(rule=rule_from_token(token, k=k, tau=tau, beta=beta))


def record(method, dataset, params, f_final, f_zero, crit=0.5):
    return RunRecord(
        method=method,
        dataset=dataset,
        params=params,
        seed=0,
        criteria={"test": {"positives_at_top": crit}, "valid": {"positives_at_top": crit}},
        f_final=f_final,
        f_zero=f_zero,
        ms_per_iter=1.0,
    )


class TestGrid:
    def test_default_values(self):
        g = Grid()
        assert g.betas == (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
        assert g.lambdas == (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
        assert g.ks == (1, 3, 5, 10, 15, 20)

    def test_points_sweep_the_right_axis(self):
        g = Grid()
        assert grid_points("toppush", g) == [{"lambda": lam} for lam in g.lambdas]
        pts = grid_points("toppushk", g)
        assert [p["k"] for p in pts] == list(g.ks)
        assert all(p["lambda"] == FIXED_LAMBDA for p in pts)
        pts = grid_points("patmat", g)
        assert [p["beta"] for p in pts] == list(g.betas)
        assert all(p["lambda"] == FIXED_LAMBDA for p in pts)
        assert grid_points("grill", g) == [{"lambda": lam} for lam in g.lambdas]


@pytest.fixture(scope="module")
def splits():
    return split(synth_example(400, seed=2), SplitSpec(0.5, 0.25, 0.25, seed=1))


@pytest.fixture(scope="module")
def big_data():
    rng = np.random.default_rng(0)
    return Dataset(rng.standard_normal((120_000, 30)), rng.random(120_000) < 0.5)


class TestGridSearch:
    def test_single_point_grid(self, splits):
        grid = Grid(lambdas=(0.001,))
        cfg = TrainConfig(iterations=40, seed=0)
        best, records = grid_search(
            "toppush", grid, splits, cfg, SelectCriterion("positives_at_top")
        )
        assert len(records) == 1
        assert best is records[0]
        assert best.params == {"lambda": 0.001}

    @pytest.mark.parametrize(
        "kind, tau, message",
        [
            ("positives_at_tpo", None, "unknown criterion"),
            ("positives_at_np", None, "requires tau"),
            ("positives_at_quantile", 1.5, r"\(0, 1\]"),
            ("positives_at_np", 0.0, r"\(0, 1\]"),
            ("positives_at_top", -0.5, r"\(0, 1\]"),
        ],
    )
    def test_select_criterion_rejected_up_front(self, kind, tau, message):
        with pytest.raises(ValueError, match=message):
            SelectCriterion(kind, tau=tau)

    def test_dominant_point_selected(self, splits):
        grid = Grid(betas=(0.1, 10.0))
        cfg = TrainConfig(iterations=150, seed=0)
        select = SelectCriterion("positives_at_quantile", tau=0.2)
        best, records = grid_search("patmat", grid, splits, cfg, select, tau=0.2)
        key = "positives_at_quantile@0.2"
        values = [r.criteria["valid"][key] for r in records]
        assert best.criteria["valid"][key] == max(values)

    def test_patmat_beta_sweep_small_beta_escapes_zero(self, splits):
        cfg = TrainConfig(iterations=300, seed=0)
        select = SelectCriterion("positives_at_quantile", tau=0.2)
        best, records = grid_search("patmat", Grid(), splits, cfg, select, tau=0.2)
        chosen = best.params["beta"]
        for r in records:
            if r.params["beta"] <= chosen:
                assert r.f_final < r.f_zero

    def test_deterministic(self, splits):
        grid = Grid(lambdas=(0.0, 0.01))
        cfg = TrainConfig(iterations=30, seed=7)
        select = SelectCriterion("positives_at_top")
        _, rec_a = grid_search("toppush", grid, splits, cfg, select)
        _, rec_b = grid_search("toppush", grid, splits, cfg, select)
        for a, b in zip(rec_a, rec_b):
            assert a.f_final == b.f_final
            assert a.criteria == b.criteria

    def test_worker_pool_matches_sequential(self, splits):
        grid = Grid(betas=(0.01, 1.0))
        cfg = TrainConfig(iterations=25, seed=0)
        select = SelectCriterion("positives_at_quantile", tau=0.2)
        best_seq, rec_seq = grid_search("patmat", grid, splits, cfg, select, tau=0.2)
        best_par, rec_par = grid_search(
            "patmat", grid, splits, cfg, select, tau=0.2, jobs=2
        )
        assert best_seq.params == best_par.params
        for a, b in zip(rec_seq, rec_par):
            assert a.f_final == b.f_final
            assert a.criteria == b.criteria


class TestZeroAudit:
    def test_all_and_none(self):
        recs = [record("m", "d", {"lambda": l}, 0.5, 1.0) for l in (0.0, 0.1)]
        assert zero_audit(recs)[0]["outcome"] == "all"
        recs = [record("m", "d", {"lambda": l}, 2.0, 1.0) for l in (0.0, 0.1)]
        assert zero_audit(recs)[0]["outcome"] == "none"

    def test_exact_tie_is_not_better(self):
        recs = [record("m", "d", {"lambda": 0.0}, 1.0, 1.0)]
        assert zero_audit(recs)[0]["outcome"] == "none"

    def test_beta_cutoff_condition(self):
        recs = [
            record("patmat", "d", {"beta": b, "lambda": FIXED_LAMBDA}, f, 1.0)
            for b, f in [(0.001, 0.4), (0.01, 0.5), (0.1, 0.9), (1.0, 1.5), (10.0, 2.0)]
        ]
        assert zero_audit(recs)[0]["outcome"] == "beta <= 0.1"

    def test_single_value_condition(self):
        recs = [
            record("patmat", "d", {"beta": b, "lambda": FIXED_LAMBDA}, f, 1.0)
            for b, f in [(0.001, 1.4), (0.01, 0.5), (0.1, 1.9)]
        ]
        assert zero_audit(recs)[0]["outcome"] == "beta = 0.01"

    def test_top_mean_fails_everywhere_on_balanced_data(self, splits):
        # half the samples are positive and tau is far below that, so the
        # zero-weights objective is a global minimum no lambda can beat
        grid = Grid(lambdas=(0.0, 0.001, 0.01))
        cfg = TrainConfig(iterations=120, seed=0)
        _, records = grid_search(
            "topmean",
            grid,
            splits,
            cfg,
            SelectCriterion("positives_at_quantile", tau=0.2),
            tau=0.2,
        )
        rows = zero_audit(records)
        assert rows[0]["outcome"] == "none"


class TestRankTable:
    def test_unanimous_winner(self):
        recs = [
            record("A", "d1", {}, 0, 1, crit=0.9),
            record("A", "d2", {}, 0, 1, crit=0.8),
            record("B", "d1", {}, 0, 1, crit=0.5),
            record("B", "d2", {}, 0, 1, crit=0.4),
        ]
        table = rank_table(recs, ["positives_at_top"])
        assert table["positives_at_top"] == {"A": 1.0, "B": 2.0}

    def test_tie_shares_rank(self):
        recs = [
            record("A", "d1", {}, 0, 1, crit=0.7),
            record("B", "d1", {}, 0, 1, crit=0.7),
        ]
        table = rank_table(recs, ["positives_at_top"])
        assert table["positives_at_top"] == {"A": 1.5, "B": 1.5}

    def test_three_methods_hand_ranked(self):
        # d1: A=0.9 B=0.5 C=0.1 -> ranks 1,2,3; d2: A=0.2 B=0.6 C=0.4 -> 3,1,2
        recs = [
            record("A", "d1", {}, 0, 1, crit=0.9),
            record("B", "d1", {}, 0, 1, crit=0.5),
            record("C", "d1", {}, 0, 1, crit=0.1),
            record("A", "d2", {}, 0, 1, crit=0.2),
            record("B", "d2", {}, 0, 1, crit=0.6),
            record("C", "d2", {}, 0, 1, crit=0.4),
        ]
        table = rank_table(recs, ["positives_at_top"])
        assert table["positives_at_top"] == {"A": 2.0, "B": 1.5, "C": 2.5}

    def test_missing_cell_rejected(self):
        recs = [
            record("A", "d1", {}, 0, 1),
            record("A", "d2", {}, 0, 1),
            record("B", "d1", {}, 0, 1),
        ]
        with pytest.raises(ValueError, match="missing cell"):
            rank_table(recs, ["positives_at_top"])


class TestTimingProbe:
    def test_positive_and_finite(self):
        d = synth_example(100, seed=0)
        ms = timing_probe(template("toppush"), d, TrainConfig(iterations=1), warmup=1, timed=5)
        assert 0.0 < ms < 1e4

    def test_minibatch_iteration_is_cheaper(self, big_data):
        # wall-clock measurement: allow a couple of retries against noise
        spec = template("toppush")
        ratio = 0.0
        for _ in range(3):
            full = timing_probe(spec, big_data, TrainConfig(iterations=1), warmup=2, timed=9)
            mini = timing_probe(
                spec, big_data, TrainConfig(iterations=1, n_minibatch=10), warmup=2, timed=9
            )
            ratio = full / mini
            if 5.0 <= ratio <= 20.0:
                break
        assert 5.0 <= ratio <= 20.0

    def test_repeatability_within_half(self, big_data):
        spec = template("toppush")
        cfg = TrainConfig(iterations=1)
        ratio = 0.0
        for _ in range(3):
            a = timing_probe(spec, big_data, cfg, warmup=2, timed=9)
            b = timing_probe(spec, big_data, cfg, warmup=2, timed=9)
            ratio = a / b
            if 1 / 1.5 <= ratio <= 1.5:
                break
        assert 1 / 1.5 <= ratio <= 1.5


class TestReproduceWorkedExample:
    def test_measured_tracks_closed_forms(self):
        rows = reproduce_worked_example(n=4000, tau=0.05, beta=0.01, k=5, seed=0)
        assert len(rows) == 10
        for row in rows:
            tol = 4.0 / np.sqrt(4000)
            assert row["t"] == pytest.approx(row["t_expected"], abs=tol)
            assert row["f"] == pytest.approx(row["f_expected"], abs=tol)

    def test_method_subset(self):
        rows = reproduce_worked_example(n=1000, methods=("toppush",))
        assert [r["method"] for r in rows] == ["toppush", "toppush"]


class TestRunManifest:
    def test_writes_artifacts(self, tmp_path):
        manifest = {
            "datasets": [{"name": "synth", "format": "synth", "n": 150, "seed": 3}],
            "methods": [
                {"method": "toppush"},
                {"method": "patmat", "tau": 0.2},
            ],
            "grid": {"betas": [0.01], "lambdas": [0.0], "ks": [1]},
            "train": {"iterations": 25},
            "split": {"seed": 5},
            "select": {"criterion": "positives_at_top"},
            "criteria_taus": [0.2],
        }
        result = run_manifest(manifest, tmp_path / "out")
        for name in ("run_records.json", "rank_table.csv", "zero_audit.csv", "timing.csv"):
            assert (tmp_path / "out" / name).exists()
        records = json.loads((tmp_path / "out" / "run_records.json").read_text())
        assert len(records) == 2
        assert len(result["winners"]) == 2
        table = (tmp_path / "out" / "rank_table.csv").read_text()
        assert "toppush" in table and "patmat(tau=0.2)" in table


    def test_rerun_differs_only_in_wall_times(self, tmp_path):
        manifest = {
            "datasets": [{"name": "synth", "format": "synth", "n": 120, "seed": 4}],
            "methods": [{"method": "toppushk"}, {"method": "grill", "tau": 0.2}],
            "grid": {"lambdas": [0.0, 0.01], "ks": [2]},
            "train": {"iterations": 20},
            "split": {"seed": 6},
            "select": {"criterion": "positives_at_top"},
            "criteria_taus": [0.2],
        }
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            run_manifest(manifest, out)
        for name in ("rank_table.csv", "zero_audit.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        records = []
        for out in runs:
            recs = json.loads((out / "run_records.json").read_text())
            for rec in recs:
                assert rec.pop("ms_per_iter") > 0.0
            records.append(recs)
        assert len(records[0]) == 3
        assert records[0] == records[1]


def small_manifest():
    return {
        "datasets": [{"name": "synth", "format": "synth", "n": 40, "seed": 1}],
        "methods": [{"method": "toppushk"}, {"method": "patmat", "tau": 0.2}],
        "grid": {"lambdas": [0.0], "ks": [1], "betas": [0.1]},
        "train": {"iterations": 5, "adam": {"step_size": 0.01}},
        "split": {"seed": 2},
        "select": {"criterion": "positives_at_top"},
        "criteria_taus": [0.2],
        "loss": "hinge",
    }


class TestManifestKeys:
    @pytest.mark.parametrize(
        "path, key",
        [
            ((), "critera_taus"),
            (("train",), "iteratons"),
            (("train", "adam"), "stepsize"),
            (("grid",), "taus"),
            (("split",), "seeds"),
            (("select",), "criterium"),
            (("datasets", 0), "path"),
            (("methods", 0), "k"),
            (("methods", 0), "tau"),
            (("methods", 1), "beta"),
        ],
    )
    def test_unknown_key_rejected_before_any_work(self, tmp_path, path, key):
        manifest = small_manifest()
        doc = manifest
        for step in path:
            doc = doc[step]
        doc[key] = 1
        with pytest.raises(ManifestError, match=f"'{key}'"):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_missing_tau_rejected(self, tmp_path):
        manifest = small_manifest()
        del manifest["methods"][1]["tau"]
        with pytest.raises(ManifestError, match="patmat requires tau"):
            run_manifest(manifest, tmp_path / "out")

    @pytest.mark.parametrize(
        "select, message",
        [
            ({"criterion": "positives_at_tpo"}, "unknown criterion"),
            ({"criterion": "positives_at_np"}, "requires tau"),
            ({"criterion": "positives_at_np", "tau": 1.5}, r"\(0, 1\]"),
            ({"criterion": "positives_at_quantile", "tau": 0.0}, r"\(0, 1\]"),
            ({"tau": 0.1}, "unknown criterion"),
        ],
    )
    def test_bad_selection_rejected_before_any_work(self, tmp_path, select, message):
        manifest = small_manifest()
        # a dataset that cannot load shows the check comes first
        manifest["datasets"] = [{"name": "gone", "path": "missing.csv", "label": "y", "pos": "1"}]
        manifest["select"] = select
        with pytest.raises(ManifestError, match=message):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_bad_criteria_tau_rejected(self, tmp_path):
        manifest = small_manifest()
        manifest["criteria_taus"] = [0.2, 1.5]
        with pytest.raises(ManifestError, match=r"\(0, 1\]"):
            run_manifest(manifest, tmp_path / "out")

    def test_readme_example_loads(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("**Experiment manifest**")[1].split("```json\n")[1]
        manifest = json.loads(block.split("```")[0])
        # same keys, smaller work: the csv entry reads a generated file
        monkeypatch.chdir(tmp_path)
        save_csv(synth_example(60, seed=0), manifest["datasets"][0]["path"])
        manifest["datasets"][1]["n"] = 60
        manifest["train"]["iterations"] = 3
        run_manifest(manifest, tmp_path / "out")
        assert (tmp_path / "out" / "rank_table.csv").exists()


class TestMethodId:
    def test_labels(self):
        assert method_id(template("toppush")) == "toppush"
        assert method_id(template("patmat", tau=0.01)) == "patmat(tau=0.01)"
