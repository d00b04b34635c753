"""CLI artifacts pinned byte for byte against stored goldens.

``tests/golden/`` holds the exact JSON and CSV files that ``topclf synth``,
``train``, ``eval``, ``grid`` and ``reproduce`` write for an 81-sample
planted-outlier dataset.  A change of key order, number format, line ending
or indentation fails here, where a rerun-against-rerun comparison would
not.  ``ms_per_iter`` is a wall time and is masked before the comparison.
``sgd.csv`` pins the weights, final threshold and last objective of every
method, trained full-batch and on three minibatches, on the same data.
The golden manifest's grid is also run on a two-worker pool and checked
against the same grid goldens.
"""

import json
import re
from pathlib import Path

import pytest

from topclf.cli import main
from topclf.data import load_csv, write_csv
from topclf.objective import ObjectiveSpec
from topclf.solver import TrainConfig, train
from topclf.threshold import rule_from_token

GOLDEN = Path(__file__).parent / "golden"

MANIFEST = {
    "datasets": [{"name": "synth", "format": "synth", "n": 40, "seed": 5}],
    "methods": [
        {"method": "toppush"},
        {"method": "toppushk"},
        {"method": "patmat", "tau": 0.1},
    ],
    "grid": {"betas": [0.1, 1.0], "ks": [1, 2], "lambdas": [0, 0.01]},
    "train": {"iterations": 20, "seed": 2, "adam": {"step_size": 0.05}},
    "split": {"seed": 1},
    "select": {"criterion": "positives_at_np", "tau": 0.1},
    "criteria_taus": [0.05],
}


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def produce(tmp: Path) -> dict[str, bytes]:
    """Every pinned artifact, written under ``tmp``."""
    data = tmp / "synth.csv"
    run("synth", "--n", 40, "--seed", 3, "--out", data)
    run(
        "train", "--method", "patmat", "--tau", 0.1, "--beta", 0.5, "--lambda", 0.001,
        "--data", data, "--iters", 30, "--minibatches", 2, "--seed", 1, "--out", tmp / "run",
    )
    run(
        "eval", "--model", tmp / "run" / "model.json", "--data", data,
        "--taus", "0.05,0.2", "--out", tmp / "eval",
    )
    run("reproduce", "--n", 2000, "--out", tmp / "reproduce.csv")
    return {
        "synth.csv": data.read_bytes(),
        "model.json": (tmp / "run" / "model.json").read_bytes(),
        "history.csv": (tmp / "run" / "history.csv").read_bytes(),
        "report.json": (tmp / "eval" / "report.json").read_bytes(),
        "pr_curve.csv": (tmp / "eval" / "pr_curve.csv").read_bytes(),
        "ptau_curve.csv": (tmp / "eval" / "ptau_curve.csv").read_bytes(),
        **produce_grid(tmp, jobs=1),
        "reproduce.csv": (tmp / "reproduce.csv").read_bytes(),
    }


def produce_grid(tmp: Path, jobs: int) -> dict[str, bytes]:
    """The golden manifest's grid artifacts run with ``--jobs``, wall times masked."""
    (tmp / "manifest.json").write_text(json.dumps(MANIFEST))
    out = tmp / f"grid-jobs{jobs}"
    run("grid", "--manifest", tmp / "manifest.json", "--jobs", jobs, "--out", out)
    records = (out / "run_records.json").read_bytes()
    timing = (out / "timing.csv").read_bytes()
    return {
        "run_records.json": re.sub(rb'"ms_per_iter": [^,\n]+', b'"ms_per_iter": 0', records),
        "rank_table.csv": (out / "rank_table.csv").read_bytes(),
        "zero_audit.csv": (out / "zero_audit.csv").read_bytes(),
        # ms_per_iter is the last column of timing.csv
        "timing.csv": re.sub(rb",[0-9.e+-]+\r\n", b",0\r\n", timing),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


GRID_ARTIFACTS = ["run_records.json", "rank_table.csv", "zero_audit.csv", "timing.csv"]
ARTIFACTS = [
    "synth.csv", "model.json", "history.csv", "report.json", "pr_curve.csv", "ptau_curve.csv",
    "run_records.json", "rank_table.csv", "zero_audit.csv", "timing.csv", "reproduce.csv",
]


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def pool_grid_outputs(tmp_path_factory):
    return produce_grid(tmp_path_factory.mktemp("golden-pool"), jobs=2)


@pytest.mark.parametrize("name", GRID_ARTIFACTS)
def test_pool_grid_matches_golden(pool_grid_outputs, name):
    assert pool_grid_outputs[name] == (GOLDEN / name).read_bytes()


SGD_METHODS = {
    "toppush": {}, "toppushk": {"k": 3}, "grill": {"tau": 0.1}, "grill-np": {"tau": 0.1},
    "patmat": {"tau": 0.1, "beta": 0.5}, "patmat-np": {"tau": 0.1, "beta": 0.5},
    "topmean": {"tau": 0.1}, "topmean-np": {"tau": 0.1},
}


def write_sgd_table(path: Path) -> None:
    """One row per method and batch count: the trained weights, t_final and last objective."""
    d = load_csv(GOLDEN / "synth.csv", "label", "1")
    rows = []
    for method, params in SGD_METHODS.items():
        spec = ObjectiveSpec(rule=rule_from_token(method, **params), lam=0.001)
        for n_minibatch in (1, 3):
            cfg = TrainConfig(iterations=30, n_minibatch=n_minibatch, seed=1, adam={"step_size": 0.05})
            model = train(spec, d, cfg)
            last = float(model.history.objective[-1])
            rows.append([method, n_minibatch, *model.w.tolist(), model.t_final, last])
    write_csv(path, ["method", "minibatches", "w0", "w1", "t_final", "objective"], rows)


def test_sgd_runs_match_golden(tmp_path):
    write_sgd_table(tmp_path / "sgd.csv")
    assert (tmp_path / "sgd.csv").read_bytes() == (GOLDEN / "sgd.csv").read_bytes()
