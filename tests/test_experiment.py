import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import save_libsvm, timing_probe
from topclf import experiment
from topclf.cli import main
from topclf.data import Dataset, SplitSpec, save_csv, synth_example
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
    zero_audit,
)
from topclf.objective import ObjectiveSpec
from topclf.solver import AdamParams, TrainConfig
from topclf.threshold import rule_from_token


GRID_ARTIFACTS = ("run_records.json", "rank_table.csv", "zero_audit.csv", "timing.csv")


def grid_artifacts(out: Path) -> dict[str, bytes]:
    """The four grid artifacts in ``out``, with the measured wall times masked."""
    files = {name: (out / name).read_bytes() for name in GRID_ARTIFACTS}
    files["run_records.json"] = re.sub(
        rb'"ms_per_iter": [^,\n]+', b'"ms_per_iter": 0', files["run_records.json"]
    )
    files["timing.csv"] = re.sub(rb",[^,\r\n]+\r\n", b",0\r\n", files["timing.csv"])
    return files


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
        w=[0.0, 0.0],
        t_final=0.0,
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


def one_pair(out, method, grid, train, select, tau=None):
    """(winner, records) of :func:`run_manifest` with one method on one dataset:
    ``synth_example(400, seed=2)``, split half/quarter/quarter with split seed 1."""
    manifest = {
        "datasets": [{"name": "data", "format": "synth", "n": 400, "seed": 2}],
        "methods": [{"method": method} if tau is None else {"method": method, "tau": tau}],
        "grid": grid,
        "train": train,
        "split": {"seed": 1},
        "select": select,
        "criteria_taus": [],
    }
    result = run_manifest(manifest, out)
    [best] = result["winners"]
    return best, result["records"]


@pytest.fixture(scope="module")
def big_data():
    rng = np.random.default_rng(0)
    return Dataset(rng.standard_normal((120_000, 30)), rng.random(120_000) < 0.5)


class TestGridSearch:
    def test_single_point_grid(self, tmp_path):
        best, records = one_pair(
            tmp_path, "toppush", {"lambdas": [0.001]}, {"iterations": 40, "seed": 0},
            {"criterion": "positives_at_top"},
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
            ("positives_at_top", 0.5, "select.tau must be unset"),
        ],
    )
    def test_select_criterion_rejected_up_front(self, kind, tau, message):
        with pytest.raises(ValueError, match=message):
            SelectCriterion(kind, tau=tau)

    def test_dominant_point_selected(self, tmp_path):
        select = {"criterion": "positives_at_quantile", "tau": 0.2}
        best, records = one_pair(
            tmp_path, "patmat", {"betas": [0.1, 10.0]}, {"iterations": 150, "seed": 0}, select,
            tau=0.2,
        )
        key = "positives_at_quantile@0.2"
        values = [r.criteria["valid"][key] for r in records]
        assert best.criteria["valid"][key] == max(values)

    def test_patmat_beta_sweep_small_beta_escapes_zero(self, tmp_path):
        select = {"criterion": "positives_at_quantile", "tau": 0.2}
        best, records = one_pair(
            tmp_path, "patmat", {}, {"iterations": 300, "seed": 0}, select, tau=0.2
        )
        chosen = best.params["beta"]
        for r in records:
            if r.params["beta"] <= chosen:
                assert r.f_final < r.f_zero

    def test_deterministic(self, tmp_path):
        grid = {"lambdas": [0.0, 0.01]}
        train, select = {"iterations": 30, "seed": 7}, {"criterion": "positives_at_top"}
        _, rec_a = one_pair(tmp_path / "a", "toppush", grid, train, select)
        _, rec_b = one_pair(tmp_path / "b", "toppush", grid, train, select)
        for a, b in zip(rec_a, rec_b):
            assert a.f_final == b.f_final
            assert a.criteria == b.criteria

    def test_worker_pool_matches_sequential(self, tmp_path):
        # one pool serves every (dataset, method) pair of the run
        manifest = small_manifest()
        manifest["datasets"].append({"name": "other", "format": "synth", "n": 50, "seed": 2})
        manifest["grid"].update(betas=[0.01, 1.0], ks=[1, 2])
        manifest["train"]["iterations"] = 25
        outs = [tmp_path / "jobs1", tmp_path / "jobs2"]
        run_manifest(manifest, outs[0], jobs=1)
        run_manifest(manifest, outs[1], jobs=2)
        assert grid_artifacts(outs[0]) == grid_artifacts(outs[1])


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

    def test_beta_floor_condition(self):
        recs = [
            record("patmat", "d", {"beta": b, "lambda": FIXED_LAMBDA}, f, 1.0)
            for b, f in [(0.001, 1.4), (0.01, 1.5), (0.1, 1.9), (1.0, 0.5), (10.0, 0.2)]
        ]
        assert zero_audit(recs)[0]["outcome"] == "beta >= 1"

    def test_scattered_values_are_listed(self):
        recs = [
            record("toppushk", "d", {"k": k, "lambda": FIXED_LAMBDA}, f, 1.0)
            for k, f in [(1, 0.5), (3, 1.5), (5, 1.2), (10, 0.8), (15, 2.0)]
        ]
        assert zero_audit(recs)[0]["outcome"] == "k in {1, 10}"

    def test_single_value_condition(self):
        recs = [
            record("patmat", "d", {"beta": b, "lambda": FIXED_LAMBDA}, f, 1.0)
            for b, f in [(0.001, 1.4), (0.01, 0.5), (0.1, 1.9)]
        ]
        assert zero_audit(recs)[0]["outcome"] == "beta = 0.01"

    def test_top_mean_fails_everywhere_on_balanced_data(self, tmp_path):
        # half the samples are positive and tau is far below that, so the
        # zero-weights objective is a global minimum no lambda can beat
        _, records = one_pair(
            tmp_path, "topmean", {"lambdas": [0.0, 0.001, 0.01]}, {"iterations": 120, "seed": 0},
            {"criterion": "positives_at_quantile", "tau": 0.2}, tau=0.2,
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

    @pytest.mark.parametrize(
        "values, ranks",
        [
            ([0.7, 0.7], [1.5, 1.5]),
            # three methods tie below the top and share ranks 2, 3 and 4
            ([0.8, 0.3, 0.3, 0.3], [1.0, 3.0, 3.0, 3.0]),
            # two methods tie in the middle and share ranks 2 and 3
            ([0.9, 0.5, 0.5, 0.1], [1.0, 2.5, 2.5, 4.0]),
        ],
        ids=["top", "three-way", "middle"],
    )
    def test_tie_shares_rank(self, values, ranks):
        methods = "ABCD"[: len(values)]
        recs = [record(m, "d1", {}, 0, 1, crit=v) for m, v in zip(methods, values)]
        table = rank_table(recs, ["positives_at_top"])
        assert table["positives_at_top"] == dict(zip(methods, ranks))

    def test_matches_average_position_oracle(self):
        # a value's rank is the mean of the 1-based positions its ties take in
        # the descending order; the ranks are halves, so the sums are exact
        rng = np.random.default_rng(0)
        for _ in range(200):
            crit = rng.integers(0, 4, (rng.integers(1, 7), rng.integers(1, 4))) / 4
            methods = [f"m{i}" for i in range(crit.shape[0])]
            recs = [
                record(m, f"d{j}", {}, 0, 1, crit=float(crit[i, j]))
                for i, m in enumerate(methods)
                for j in range(crit.shape[1])
            ]
            expected = {}
            for i, m in enumerate(methods):
                total = 0.0
                for j in range(crit.shape[1]):
                    ordered = sorted(crit[:, j].tolist(), reverse=True)
                    positions = [p + 1 for p, v in enumerate(ordered) if v == crit[i, j]]
                    total += sum(positions) / len(positions)
                expected[m] = total / crit.shape[1]
            assert rank_table(recs, ["positives_at_top"])["positives_at_top"] == expected

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

    def test_libsvm_entry_matches_csv_entry(self, tmp_path):
        d = synth_example(40, seed=2)
        save_csv(d, tmp_path / "d.csv")
        save_libsvm(d, tmp_path / "d.svm")
        entries = {
            "csv": {"name": "d", "path": str(tmp_path / "d.csv"), "label": "label", "pos": "1"},
            "libsvm": {"name": "d", "format": "libsvm", "path": str(tmp_path / "d.svm")},
        }
        for fmt, entry in entries.items():
            manifest = small_manifest()
            manifest["datasets"] = [entry]
            run_manifest(manifest, tmp_path / fmt)
        assert grid_artifacts(tmp_path / "libsvm") == grid_artifacts(tmp_path / "csv")


def uneven_manifest():
    """Two datasets and three methods whose grids have 6, 2 and 3 points."""
    manifest = small_manifest()
    manifest["datasets"].append({"name": "other", "format": "synth", "n": 50, "seed": 2})
    manifest["methods"].insert(0, {"method": "toppush"})
    manifest["grid"] = {"ks": [1, 2], "betas": [0.1, 1, 10]}
    manifest["train"]["iterations"] = 15
    return manifest


@pytest.fixture
def pools(monkeypatch):
    """Swap the run's ProcessPoolExecutor for one that records its use and starts no process."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            self.max_workers = max_workers
            self.map_sizes = []
            initializer(*initargs)
            started.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            self.map_sizes.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiment, "_RUN", {})
    return started


def without_wall_times(records):
    return [dataclasses.replace(r, ms_per_iter=0.0) for r in records]


class TestRunScheduling:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_grid_search_per_pair(self, tmp_path, jobs):
        # the full run against one run per (dataset, method) pair, on one process
        manifest = uneven_manifest()
        result = run_manifest(manifest, tmp_path / "all", jobs=jobs)
        winners, records = [], []
        for entry in manifest["datasets"]:
            for i, m in enumerate(manifest["methods"]):
                pair = dict(manifest, datasets=[entry], methods=[m])
                one = run_manifest(pair, tmp_path / f"{entry['name']}-{i}")
                winners.extend(one["winners"])
                records.extend(one["records"])
        assert len(winners) == 2 * 3
        assert len(records) == 2 * (6 + 2 + 3)
        assert without_wall_times(result["records"]) == without_wall_times(records)
        assert without_wall_times(result["winners"]) == without_wall_times(winners)

    def test_each_grid_point_builds_its_rule_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rule_from_token(*args, **kwargs)

        monkeypatch.setattr(experiment, "rule_from_token", counted)
        result = run_manifest(uneven_manifest(), tmp_path, jobs=1)
        # one build per (method, grid point), shared by both datasets
        assert len(calls) == 6 + 2 + 3
        assert len(result["records"]) == 2 * (6 + 2 + 3)

    @pytest.mark.parametrize("jobs, workers", [(1, None), (2, 2), (64, 6)])
    def test_one_map_on_at_most_one_worker_per_task(
        self, tmp_path, monkeypatch, pools, jobs, workers
    ):
        # one grid_search call runs every task of the run, one task per
        # (dataset, method) cell: 2 datasets x 3 methods
        calls = []

        def counted(tasks, *args):
            calls.append(len(tasks))
            return grid_search(tasks, *args)

        monkeypatch.setattr(experiment, "grid_search", counted)
        run_manifest(uneven_manifest(), tmp_path, jobs=jobs)
        assert calls == [6]
        if workers is None:
            assert pools == []
        else:
            [pool] = pools
            assert pool.max_workers == workers
            assert pool.map_sizes == [6]


CSV_ENTRY = {"name": "c", "format": "csv", "path": "c.csv", "label": "y", "pos": "1"}
LIBSVM_ENTRY = {"name": "l", "format": "libsvm", "path": "l.svm"}


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

    @pytest.mark.parametrize(
        "dataset, path, key",
        [
            (None, (), "datasets"),
            (None, (), "methods"),
            (None, (), "select"),
            (None, ("methods", 0), "method"),
            (None, ("datasets", 0), "name"),
            (None, ("datasets", 0), "n"),
            (CSV_ENTRY, ("datasets", 0), "path"),
            (CSV_ENTRY, ("datasets", 0), "label"),
            (CSV_ENTRY, ("datasets", 0), "pos"),
            (LIBSVM_ENTRY, ("datasets", 0), "path"),
        ],
    )
    def test_missing_key_rejected_before_any_work(self, tmp_path, dataset, path, key):
        manifest = small_manifest()
        if dataset is not None:
            manifest["datasets"] = [dict(dataset)]
        doc = manifest
        for step in path:
            doc = doc[step]
        del doc[key]
        with pytest.raises(ManifestError, match=f"missing manifest key '{key}'"):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_duplicate_dataset_name_rejected(self, tmp_path):
        manifest = small_manifest()
        manifest["datasets"].append(dict(manifest["datasets"][0], seed=2))
        with pytest.raises(ManifestError, match="'synth' is taken"):
            run_manifest(manifest, tmp_path / "out")

    @pytest.mark.parametrize(
        "methods",
        [
            [{"method": "patmat", "tau": 0.1}, {"method": "patmat", "tau": 0.1}],
            # both label as patmat(tau=0.1)
            [{"method": "patmat", "tau": 0.1}, {"method": "patmat", "tau": 0.1000001}],
            [{"method": "toppush"}, {"method": "grill", "tau": 0.1}, {"method": "toppush"}],
        ],
    )
    def test_shared_method_label_rejected_before_loading(self, tmp_path, methods):
        manifest = small_manifest()
        manifest["datasets"] = [{"name": "gone", "path": "missing.csv", "label": "y", "pos": "1"}]
        manifest["methods"] = methods
        label = re.escape(method_id(template(methods[-1]["method"], tau=methods[-1].get("tau"))))
        message = f"^methods\\[{len(methods) - 1}\\]: method label '{label}' is taken$"
        with pytest.raises(ManifestError, match=message):
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
            ({"criterion": "positives_at_top", "tau": 0.5}, "select.tau must be unset"),
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

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ((), [1], "the manifest must be a JSON object"),
            (("datasets",), {"name": "synth"}, "datasets must be a JSON array"),
            (("datasets", 0), 5, r"datasets\[0\] must be a JSON object"),
            (("methods",), "toppush", "methods must be a JSON array"),
            (("methods", 0), "toppush", r"methods\[0\] must be a JSON object"),
            (("criteria_taus",), 0.2, "criteria_taus must be a JSON array"),
            (("grid",), [0.1], "grid must be a JSON object"),
            (("grid", "lambdas"), 0.1, "grid.lambdas must be a JSON array"),
            (("train",), [1], "train must be a JSON object"),
            (("train", "adam"), 0.01, "train.adam must be a JSON object"),
            (("split",), None, "split must be a JSON object"),
            (("select",), "positives_at_top", "select must be a JSON object"),
            (("methods", 0, "method"), ["toppush"], r"methods\[0\]\.method must be a JSON string"),
            (("methods", 1, "tau"), "0.1", r"methods\[1\]\.tau must be a JSON number"),
            (("methods", 1, "tau"), True, r"methods\[1\]\.tau must be a JSON number"),
            (("grid", "betas"), ["a"], r"grid\.betas\[0\] must be a JSON number"),
            (("grid", "lambdas"), [0.0, "a"], r"grid\.lambdas\[1\] must be a JSON number"),
            (("grid", "ks"), [1.5], r"grid\.ks\[0\] must be a JSON integer"),
            (("grid", "ks"), [True], r"grid\.ks\[0\] must be a JSON integer"),
            (("datasets", 0, "n"), "30", r"datasets\[0\]\.n must be a JSON integer"),
            (("datasets", 0, "seed"), "x", r"datasets\[0\]\.seed must be a JSON integer"),
            (("datasets",), [dict(CSV_ENTRY, path=1)], r"\[0\]\.path must be a JSON string"),
            (("datasets",), [dict(CSV_ENTRY, label=None)], r"\[0\]\.label must be a JSON string"),
            (("datasets",), [dict(CSV_ENTRY, pos=1)], r"\[0\]\.pos must be a JSON string"),
            (("datasets",), [dict(LIBSVM_ENTRY, path=["l"])], r"\[0\]\.path must be a JSON string"),
            (("train", "seed"), 1.5, r"train\.seed must be a JSON integer"),
            (("train", "seed"), False, r"train\.seed must be a JSON integer"),
            (("train", "n_minibatch"), 1.5, r"train\.n_minibatch must be a JSON integer"),
            (("split", "seed"), 1.5, r"split\.seed must be a JSON integer"),
            (("datasets", 0, "name"), ["s"], r"datasets\[0\]\.name must be a JSON string"),
            (("train", "iterations"), 1.5, r"train\.iterations must be a JSON integer"),
            (("train", "iterations"), True, r"train\.iterations must be a JSON integer"),
            (("train", "adam", "step_size"), True, r"train\.adam\.step_size must be a JSON number"),
            (("train", "adam", "beta1"), "0.9", r"train\.adam\.beta1 must be a JSON number"),
            (("train", "adam", "beta2"), None, r"train\.adam\.beta2 must be a JSON number"),
            (("train", "adam", "epsilon"), [1e-8], r"train\.adam\.epsilon must be a JSON number"),
            (("split", "train_frac"), "0.5", r"split\.train_frac must be a JSON number"),
            (("split", "valid_frac"), False, r"split\.valid_frac must be a JSON number"),
            (("split", "test_frac"), None, r"split\.test_frac must be a JSON number"),
            (("split", "stratified"), "no", r"split\.stratified must be a JSON boolean"),
            (("split", "stratified"), 0, r"split\.stratified must be a JSON boolean"),
            (
                ("train", "project_unit_ball"), "no",
                r"train\.project_unit_ball must be a JSON boolean or null",
            ),
            (("criteria_taus",), [True], r"criteria_taus\[0\] must be a JSON number"),
            (("select", "tau"), True, r"select\.tau must be a JSON number or null"),
            (("select", "tau"), "0.1", r"select\.tau must be a JSON number or null"),
            (("select", "criterion"), 5, "must be a JSON string"),
            (("train", "init"), 5, r"train\.init must be a JSON string"),
            (("loss",), 5, "loss must be a JSON string"),
        ],
    )
    def test_wrong_json_type_rejected_before_loading(
        self, tmp_path, monkeypatch, path, value, message
    ):
        def fail(entry):
            raise AssertionError("a dataset was loaded")

        monkeypatch.setattr(experiment, "load_dataset", fail)
        manifest = small_manifest()
        if path:
            doc = manifest
            for step in path[:-1]:
                doc = doc[step]
            doc[path[-1]] = value
        else:
            manifest = value
        with pytest.raises(ManifestError, match=message):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, field",
        [
            (path, field)
            for path, cls in (
                (("grid",), Grid),
                (("train",), TrainConfig),
                (("train", "adam"), AdamParams),
                (("split",), SplitSpec),
            )
            for field in dataclasses.fields(cls)
        ],
        ids=lambda arg: ".".join(arg) if isinstance(arg, tuple) else arg.name,
    )
    def test_every_section_field_is_typed(self, tmp_path, monkeypatch, path, field):
        # a field needs no table entry of its own to be type-checked
        def fail(entry):
            raise AssertionError("a dataset was loaded")

        monkeypatch.setattr(experiment, "load_dataset", fail)
        manifest = small_manifest()
        doc = manifest
        for step in path:
            doc = doc[step]
        doc[field.name] = 5 if isinstance(field.default, str) else "x"
        where = ".".join((*path, field.name))
        with pytest.raises(ManifestError, match=re.escape(f"{where} must be a JSON ")):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("project", [False, None])
    def test_json_booleans_accepted(self, tmp_path, project):
        manifest = small_manifest()
        manifest["split"]["stratified"] = False
        manifest["train"]["project_unit_ball"] = project
        run_manifest(manifest, tmp_path / "out")
        assert (tmp_path / "out" / "run_records.json").exists()

    def test_bad_criteria_tau_rejected(self, tmp_path):
        manifest = small_manifest()
        manifest["criteria_taus"] = [0.2, 1.5]
        with pytest.raises(ManifestError, match=r"\(0, 1\]"):
            run_manifest(manifest, tmp_path / "out")

    def test_unknown_method_rejected_before_any_work(self, tmp_path):
        manifest = small_manifest()
        manifest["methods"].append({"method": "svm"})
        with pytest.raises(ManifestError, match=r"methods\[2\]: unknown method 'svm'"):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("train", {"iterations": 0}, "iterations must be positive"),
            ("train", {"iterations": "5"}, r"train\.iterations must be a JSON integer"),
            ("train", {"n_minibatch": 0}, "n_minibatch must be positive"),
            ("train", {"init": "ones"}, "init must be 'zeros' or 'uniform'"),
            ("train", {"adam": {"step_size": -1.0}}, "step_size must be non-negative"),
            ("split", {"train_frac": 0.9}, "fractions must sum to 1"),
            ("split", {"train_frac": -0.5, "valid_frac": 1.0, "test_frac": 0.5}, r"lie in \[0,1\]"),
            ("loss", "square", "unknown surrogate loss 'square'"),
        ],
    )
    def test_bad_value_rejected_before_loading(self, tmp_path, section, value, message):
        manifest = small_manifest()
        # a dataset that cannot load shows the check comes first
        manifest["datasets"] = [{"name": "gone", "path": "missing.csv", "label": "y", "pos": "1"}]
        manifest[section] = value
        with pytest.raises(ManifestError, match=message):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

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


class TestFeasibility:
    """An empty split part, or a grid point a training split cannot support,
    stops the run before training."""

    @pytest.fixture()
    def no_training(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a grid point was trained")

        monkeypatch.setattr(experiment, "train", fail)

    def manifest(self, methods, grid, n_minibatch=1):
        # 41 samples; the training split holds 10 positives and 11 negatives
        return {
            "datasets": [{"name": "tiny", "format": "synth", "n": 20, "seed": 0}],
            "methods": methods,
            "grid": grid,
            "train": {"iterations": 5, "n_minibatch": n_minibatch},
            "select": {"criterion": "positives_at_top"},
        }

    @pytest.mark.parametrize(
        "methods, grid, n_minibatch, message",
        [
            # every toppush point used to train before toppushk failed
            ([{"method": "toppush"}, {"method": "toppushk"}], {}, 1,
             r"method toppushk, training split \(whole\): k=15 exceeds the 11 negative"),
            ([{"method": "topmean-np", "tau": 0.05}], {}, 1, "tau=0.05 over 11 samples"),
            ([{"method": "grill", "tau": 0.04}], {}, 1, "tau=0.04 over 21 samples"),
            ([{"method": "toppush"}], {}, 11, "n_minibatch=11 exceeds min"),
            # the smallest of 4 chunks holds floor(11 / 4) = 2 negatives
            ([{"method": "toppushk"}], {"ks": [2, 3]}, 4,
             r"smallest of 4 minibatches\): k=3 exceeds the 2 negative"),
            ([{"method": "grill", "tau": 0.15}], {}, 4, "tau=0.15 over 5 samples"),
        ],
    )
    def test_infeasible_point_rejected_before_training(
        self, tmp_path, no_training, methods, grid, n_minibatch, message
    ):
        manifest = self.manifest(methods, grid, n_minibatch)
        with pytest.raises(ManifestError, match=f"dataset 'tiny', .*{message}"):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "methods, grid, message",
        [
            ([{"method": "patmat", "tau": 1.5}], {"betas": [1.0]},
             r"methods\[0\]: surrogate_quantile requires tau in \(0, 1\), got 1.5"),
            ([{"method": "toppushk"}], {"ks": [0]},
             r"methods\[0\]: top_push_k requires a positive integer k, got 0"),
            ([{"method": "toppush"}, {"method": "toppushk"}], {"ks": []},
             r"methods\[1\]: empty hyperparameter grid for toppushk"),
            ([{"method": "toppush"}], {"lambdas": [0.0, -1.0]},
             r"methods\[0\]: lambda must be non-negative, got -1.0"),
        ],
    )
    def test_data_free_bad_value_rejected_before_loading(
        self, tmp_path, monkeypatch, capsys, methods, grid, message
    ):
        # a loader that fails would exit 1, so exit 2 shows the check comes first
        def unloadable(entry):
            raise FileNotFoundError(f"no such file: {entry['name']}")

        monkeypatch.setattr(experiment, "load_dataset", unloadable)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(self.manifest(methods, grid)))
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert re.search(f"error: {message}$", capsys.readouterr().err.strip())
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fractions, part",
        [((0.0, 0.5, 0.5), "train"), ((0.8, 0.0, 0.2), "validation"), ((0.5, 0.5, 0.0), "test")],
    )
    def test_empty_split_part_rejected_before_training(
        self, tmp_path, no_training, fractions, part
    ):
        manifest = self.manifest([{"method": "toppush"}], {})
        manifest["split"] = dict(zip(("train_frac", "valid_frac", "test_frac"), fractions))
        message = f"^dataset 'tiny': split would leave the {part} part empty$"
        with pytest.raises(ManifestError, match=message):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "n, split, message",
        [
            # the default stratified split deals both positives to train and validation
            (2, {}, "the test part has no positive samples"),
            (3, {"stratified": False, "seed": 5}, "the validation part has no positive samples"),
            (3, {"stratified": False, "seed": 4}, "the train part has no negative samples"),
        ],
    )
    def test_split_part_lacking_a_class_rejected_before_training(
        self, tmp_path, no_training, n, split, message
    ):
        # criteria on a part without both classes are undefined, and used to
        # fail only after every grid point had trained
        manifest = self.manifest([{"method": "toppush"}], {})
        manifest["datasets"][0]["n"] = n
        manifest["split"] = split
        with pytest.raises(ManifestError, match=f"^dataset 'tiny': {message}$"):
            run_manifest(manifest, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "methods, grid, n_minibatch",
        [
            ([{"method": "toppushk"}], {"ks": [11]}, 1),
            ([{"method": "topmean-np", "tau": 0.1}], {}, 1),
            ([{"method": "toppushk"}], {"ks": [2]}, 4),
            ([{"method": "grill-np", "tau": 0.5}], {}, 4),
            ([{"method": "patmat", "tau": 0.01}], {"betas": [1.0]}, 10),
        ],
    )
    def test_feasible_edge_runs(self, tmp_path, methods, grid, n_minibatch):
        run_manifest(self.manifest(methods, grid, n_minibatch), tmp_path / "out")
        assert (tmp_path / "out" / "run_records.json").exists()


class TestMethodId:
    def test_labels(self):
        assert method_id(template("toppush")) == "toppush"
        assert method_id(template("patmat", tau=0.01)) == "patmat(tau=0.01)"
