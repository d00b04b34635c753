"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They use the --smoke input sizes, so the whole file runs in about a minute.  The file name keeps it out of the repository's default test run.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 7


def _bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_metric(workload, spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc = _result(workload, trace)
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert list(doc["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert doc["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(workload, 1)["metrics"] for _ in range(2))
    counts = [n for n, m in first.items() if m["unit"] in ("count", "B")]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_run_without_sources_fails_without_a_result(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eval-cli", "--seed", "1", "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_tracer(spec):
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.metric_units())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# --- each check rejects a corrupted output ---------------------------------


def _ops(tmp_path, workload):
    cache = inputs.ensure(tmp_path, workload, SEED, smoke=True)
    return workloads.build(workload, cache, tmp_path / "out", inputs.SMOKE)


@pytest.fixture(scope="module")
def train_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    ops = _ops(tmp, "train-full")
    arrays = np.load(inputs.ensure(tmp, "train-full", SEED, smoke=True) / "train.npz")
    return arrays["features"], arrays["labels"], [(op, op.call()) for op in ops]


def _model(train_outputs, label):
    op, model = next((op, m) for op, m in train_outputs[2] if op.label == label)
    return op, copy.deepcopy(model)


def test_train_check_accepts_and_rejects_perturbed_threshold(train_outputs):
    for op, model in train_outputs[2]:
        op.check(model)
        op.check(model)  # a repeat with the same seed is bitwise identical
    for label in inputs.METHODS:
        op, model = _model(train_outputs, label)
        model.t_final = model.t_final + 1e-6 * max(1.0, abs(model.t_final))
        with pytest.raises(checks.CheckError, match="t_final"):
            op.check(model)


def test_train_check_rejects_non_finite_history(train_outputs):
    op, model = _model(train_outputs, "patmat")
    model.history.objective[2] = np.nan
    with pytest.raises(checks.CheckError, match="history"):
        op.check(model)


def test_train_check_rejects_weights_outside_the_ball(train_outputs):
    op, model = _model(train_outputs, "grill")
    model.w = model.w * (1.5 / np.linalg.norm(model.w))
    with pytest.raises(checks.CheckError, match=r"\|\|w\|\|"):
        op.check(model)


def test_train_check_rejects_a_changed_repeat(train_outputs):
    features, labels, _ = train_outputs
    op, model = _model(train_outputs, "topmean")
    op.check(model)
    model.w[0] = np.nextafter(model.w[0], np.inf)
    # keep t_final consistent with the new w, so only the repeat check fires
    model.t_final = checks.reference_threshold("top_mean", features @ model.w, labels, tau=inputs.TAU)
    with pytest.raises(checks.CheckError, match="repeating"):
        op.check(model)


@pytest.fixture()
def eval_run(tmp_path):
    ops = _ops(tmp_path, "eval-cli")
    for op in ops:
        op.check(op.call())
    return ops, tmp_path / "out"


def _rewrite_csv(path, row, col, new):
    rows = list(csv.reader(path.open()))
    rows[row][col] = new
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_eval_check_rejects_one_perturbed_pr_precision(eval_run):
    ops, out = eval_run
    path = out / ops[0].label / "pr_curve.csv"
    value = float(list(csv.reader(path.open()))[2][1])
    _rewrite_csv(path, 2, 1, repr(value * (1 + 1e-6)))
    with pytest.raises(checks.CheckError, match="pr_curve.csv"):
        ops[0].check(None)


def test_eval_check_rejects_a_perturbed_ptau_point(eval_run):
    ops, out = eval_run
    path = out / ops[-1].label / "ptau_curve.csv"
    _rewrite_csv(path, 1, 1, "0.5")
    with pytest.raises(checks.CheckError, match="ptau_curve.csv"):
        ops[-1].check(None)


@pytest.mark.parametrize("field", ["counts", "criteria"])
def test_eval_check_rejects_a_wrong_report(eval_run, field):
    ops, out = eval_run
    op = ops[-1]  # the tied set: scores exactly at t count in q
    path = out / op.label / "report.json"
    report = json.loads(path.read_text())
    if field == "counts":
        report["counts"]["q"] += 1
    else:
        report["criteria"]["positives_at_top"] += 1.0 / 64
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError):
        op.check(None)


def test_eval_reference_agrees_with_brute_force_on_ties():
    rng = np.random.default_rng(0)
    x = rng.integers(-1, 2, size=(200, 3)).astype(float)
    y = rng.random(200) < 0.3
    w = np.array([0.5, 0.25, -1.0])
    ref = checks.eval_reference(x, y, w, 0.25, [0.1])
    z = x @ w
    best = {}
    for t in np.unique(z)[::-1]:
        tp, fp = int(((z >= t) & y).sum()), int(((z >= t) & ~y).sum())
        r, p = tp / y.sum(), tp / (tp + fp)
        best[r] = max(best.get(r, -1.0), p)
    assert ref["pr_curve"] == sorted(best.items())
    assert ref["counts"]["q"] == int((z == 0.25).sum()) > 0


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    (op,) = _ops(tmp, "grid-manifest")
    op.check(op.call())
    return op, tmp / "out" / "grid"


@pytest.fixture()
def grid_copy(grid_run, tmp_path):
    op, out = grid_run
    backup = tmp_path / "backup"
    shutil.copytree(out, backup)
    yield op, out
    shutil.rmtree(out)
    shutil.copytree(backup, out)


def test_grid_check_rejects_two_swapped_ranks(grid_copy):
    op, out = grid_copy
    rows = list(csv.reader((out / "rank_table.csv").open()))
    col = 1
    i, j = next((i, j) for i in range(1, len(rows)) for j in range(i + 1, len(rows)) if rows[i][col] != rows[j][col])
    rows[i][col], rows[j][col] = rows[j][col], rows[i][col]
    with (out / "rank_table.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(checks.CheckError, match="rank table"):
        op.check(None)


def test_grid_check_rejects_a_wrong_criterion(grid_copy):
    op, out = grid_copy
    records = json.loads((out / "run_records.json").read_text())
    records[5]["criteria"]["test"]["positives_at_top"] += 0.01
    (out / "run_records.json").write_text(json.dumps(records))
    with pytest.raises(checks.CheckError, match="positives_at_top"):
        op.check(None)


def test_grid_check_rejects_a_wrong_zero_audit(grid_copy):
    op, out = grid_copy
    rows = list(csv.DictReader((out / "zero_audit.csv").open()))
    rows[0]["n_success"] = str(int(rows[0]["n_success"]) + 1)
    with (out / "zero_audit.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(checks.CheckError, match="zero audit"):
        op.check(None)


def test_grid_check_rejects_a_missing_record(grid_copy):
    op, out = grid_copy
    records = json.loads((out / "run_records.json").read_text())
    (out / "run_records.json").write_text(json.dumps(records[:-1]))
    with pytest.raises(checks.CheckError, match="records"):
        op.check(None)


def test_grid_outputs_agree_with_one_and_two_jobs(tmp_path):
    cache = inputs.ensure(tmp_path, "grid-manifest", SEED, smoke=True)
    outs = {}
    for jobs in (1, 2):
        (op,) = workloads.grid_ops(cache, tmp_path / f"jobs{jobs}", jobs=jobs)
        op.check(op.call())
        outs[jobs] = tmp_path / f"jobs{jobs}" / "grid"
    records = [json.loads((outs[j] / "run_records.json").read_text()) for j in (1, 2)]
    for rec in records[0] + records[1]:
        del rec["ms_per_iter"]
    assert records[0] == records[1]
    for name in ("rank_table.csv", "zero_audit.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()
    timing = [[row[:2] for row in csv.reader((outs[j] / "timing.csv").open())] for j in (1, 2)]
    assert timing[0] == timing[1]
