"""Grid search, aggregation tables and the synthetic worked example.

The hyperparameter grid defaults to

    beta   in {1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
    lambda in {0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
    k      in {1, 3, 5, 10, 15, 20}

with lambda pinned to 1e-3 for the methods that already sweep k or beta, so
every method searches six points.  Selection maximizes a fraction-of-
positives criterion on the validation split; test-split values are what the
rank tables aggregate.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from . import data as data_mod
from .data import Dataset, SplitSpec, split, synth_example
from .evaluation import check_criterion, check_taus, criteria_table
from .objective import ObjectiveSpec, objective
from .solver import AdamParams, Model, TrainConfig, train
from .surrogate import HINGE, SurrogateLoss, make_loss
from .threshold import RULES, method_params, rule_from_token, threshold

__all__ = [
    "Grid",
    "SelectCriterion",
    "RunRecord",
    "ManifestError",
    "FIXED_LAMBDA",
    "grid_points",
    "method_id",
    "grid_search",
    "zero_audit",
    "rank_table",
    "timing_probe",
    "reproduce_worked_example",
    "run_manifest",
]

FIXED_LAMBDA = 1e-3


@dataclass(frozen=True)
class Grid:
    betas: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    lambdas: tuple[float, ...] = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
    ks: tuple[int, ...] = (1, 3, 5, 10, 15, 20)


@dataclass(frozen=True)
class SelectCriterion:
    kind: str
    tau: float | None = None

    def __post_init__(self):
        check_criterion(self.kind, self.tau)


@dataclass
class RunRecord:
    method: str
    dataset: str
    params: dict
    seed: int
    criteria: dict
    f_final: float
    f_zero: float
    ms_per_iter: float
    model: Model | None = None

    def to_dict(self) -> dict:
        doc = dict(vars(self))
        model = doc.pop("model")
        if model is not None:
            doc["w"] = model.w.tolist()
            doc["t_final"] = model.t_final
        return doc


def method_id(spec: ObjectiveSpec) -> str:
    """Readable method-instance label, one per (kind, tau) pair."""
    token, _, _ = RULES[spec.rule.kind]
    if spec.rule.tau is not None:
        return f"{token}(tau={spec.rule.tau:g})"
    return token


def grid_points(method: str, grid: Grid) -> list[dict]:
    """Hyperparameter dictionaries swept for ``method``."""
    params = method_params(method)
    if "k" in params:
        return [{"k": k, "lambda": FIXED_LAMBDA} for k in grid.ks]
    if "beta" in params:
        return [{"beta": beta, "lambda": FIXED_LAMBDA} for beta in grid.betas]
    return [{"lambda": lam} for lam in grid.lambdas]


def _criterion_key(select: SelectCriterion) -> str:
    if select.kind == "positives_at_top":
        return select.kind
    return f"{select.kind}@{select.tau:g}"


def _run_point(args) -> RunRecord:
    method, tau, loss, point, splits, cfg, taus, dataset_name = args
    swept = {name: value for name, value in point.items() if name != "lambda"}
    rule = rule_from_token(method, tau=tau, **swept)
    spec = ObjectiveSpec(rule=rule, loss=loss, lam=point["lambda"])
    model = train(spec, splits["train"], cfg)
    zeros = np.zeros(splits["train"].m)
    return RunRecord(
        method=method_id(spec),
        dataset=dataset_name,
        params=point,
        seed=cfg.seed,
        criteria={name: criteria_table(model.w, d, taus) for name, d in splits.items()},
        f_final=objective(spec, model.w, splits["train"]),
        f_zero=objective(spec, zeros, splits["train"]),
        ms_per_iter=float(np.median(model.history.iter_ms)),
        model=model,
    )


def grid_search(
    method: str,
    grid: Grid,
    splits: tuple[Dataset, Dataset, Dataset],
    cfg: TrainConfig,
    select: SelectCriterion,
    tau: float | None = None,
    loss: SurrogateLoss = HINGE,
    dataset_name: str = "data",
    criteria_taus=None,
    jobs: int = 1,
) -> tuple[RunRecord, list[RunRecord]]:
    """Train one model per grid point of ``method`` and pick the validation winner.

    Each grid point supplies the swept hyperparameters of the rule (k or
    beta) and lambda; ``tau`` and ``loss`` are fixed for the whole grid.
    Returns (best record, all records).  The winner maximizes the selection
    criterion on the validation split; ties go to the earlier grid point, so
    the result is a pure function of the inputs.
    """
    d_train, d_valid, d_test = splits
    named = {"train": d_train, "valid": d_valid, "test": d_test}
    points = grid_points(method, grid)
    if not points:
        raise ValueError("empty hyperparameter grid")
    taus = list(criteria_taus) if criteria_taus is not None else []
    if select.tau is not None and select.tau not in taus:
        taus.append(select.tau)
    args = [(method, tau, loss, point, named, cfg, taus, dataset_name) for point in points]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_point, args))
    else:
        records = [_run_point(a) for a in args]
    key = _criterion_key(select)
    best = max(records, key=lambda r: r.criteria["valid"][key])
    return best, records


def zero_audit(records: list[RunRecord]) -> list[dict]:
    """Per method and dataset: did training beat the all-zero weights?

    A grid point counts as a success when f(w_final) < f(0) strictly.  The
    outcome column reads "all", "none", or a condition on the swept
    hyperparameter such as "beta <= 0.1".
    """
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.dataset), []).append(rec)
    rows = []
    for (method, dataset), recs in sorted(groups.items()):
        successes = [r for r in recs if r.f_final < r.f_zero]
        if len(successes) == len(recs):
            outcome = "all"
        elif not successes:
            outcome = "none"
        else:
            outcome = _describe_successes(recs, successes)
        rows.append(
            {
                "method": method,
                "dataset": dataset,
                "outcome": outcome,
                "n_success": len(successes),
                "n_points": len(recs),
            }
        )
    return rows


def _describe_successes(recs: list[RunRecord], successes: list[RunRecord]) -> str:
    swept = [
        name
        for name in ("beta", "k", "lambda")
        if len({r.params.get(name) for r in recs}) > 1
    ]
    if not swept:
        return "some"
    name = swept[0]
    good = sorted(r.params[name] for r in successes)
    all_vals = sorted(r.params[name] for r in recs)
    if len(good) == 1:
        return f"{name} = {good[0]:g}"
    if good == [v for v in all_vals if v <= good[-1]]:
        return f"{name} <= {good[-1]:g}"
    if good == [v for v in all_vals if v >= good[0]]:
        return f"{name} >= {good[0]:g}"
    return f"{name} in {{{', '.join(f'{v:g}' for v in good)}}}"


def rank_table(
    winners: list[RunRecord], criteria: list[str], split_name: str = "test"
) -> dict[str, dict[str, float]]:
    """Average rank of each method across datasets, per criterion column.

    Rank 1 is the best (largest criterion value); ties share the average of
    the ranks they span.  Every method must appear on every dataset.
    """
    methods = sorted({r.method for r in winners})
    datasets = sorted({r.dataset for r in winners})
    by_cell = {(r.method, r.dataset): r for r in winners}
    table: dict[str, dict[str, float]] = {}
    for crit in criteria:
        ranks = np.zeros(len(methods))
        for ds in datasets:
            values = []
            for method in methods:
                rec = by_cell.get((method, ds))
                if rec is None:
                    raise ValueError(f"missing cell: method {method!r} on {ds!r}")
                values.append(rec.criteria[split_name][crit])
            ranks += rankdata([-v for v in values], method="average")
        table[crit] = {m: ranks[i] / len(datasets) for i, m in enumerate(methods)}
    return table


def timing_probe(
    spec: ObjectiveSpec, d: Dataset, cfg: TrainConfig, warmup: int = 5, timed: int = 21
) -> float:
    """Median wall-clock milliseconds per training iteration after warmup."""
    if warmup < 1:
        raise ValueError("warmup must be >= 1")
    probe_cfg = dataclasses.replace(cfg, iterations=warmup + timed)
    model = train(spec, d, probe_cfg)
    return float(statistics.median(model.history.iter_ms[warmup:]))


_WORKED_EXAMPLE_METHODS = ("toppush", "toppushk", "grill", "patmat", "topmean")


def reproduce_worked_example(
    n: int = 100_000,
    tau: float = 0.05,
    beta: float = 0.01,
    k: int = 5,
    seed: int = 0,
    methods=_WORKED_EXAMPLE_METHODS,
) -> list[dict]:
    """Thresholds and objectives of the two landmark weight vectors.

    On the planted outlier dataset the all-zero weights w1=(0,0) and the
    perfect separator w2=(1,0) have closed-form thresholds and objectives
    for each method; the table pairs the measured sample values with those
    limits.  The closed form for patmat's w2 assumes beta <= tau.
    """
    if n < 1000:
        raise ValueError("n must be at least 1000 for the limits to be meaningful")
    d = synth_example(n, seed)
    w1 = np.zeros(2)
    w2 = np.array([1.0, 0.0])
    t0 = (1.0 - tau) / beta
    expected = {
        "toppush": {"w1": (0.0, 1.0), "w2": (2.0, 2.5)},
        "toppushk": {"w1": (0.0, 1.0), "w2": (2.0 / k, 0.5 + 2.0 / k)},
        "grill": {
            "w1": (0.0, 2.0),
            "w2": (1.0 - 2.0 * tau, 1.5 - 2.0 * tau * (1.0 - tau)),
        },
        "patmat": {"w1": (t0, 1.0 + t0), "w2": (t0, 0.5 + t0)},
        "topmean": {"w1": (0.0, 1.0), "w2": (1.0 - tau, 1.5 - tau)},
    }
    rows = []
    for token in methods:
        spec = ObjectiveSpec(rule=rule_from_token(token, k=k, tau=tau, beta=beta))
        for point_name, w in (("w1", w1), ("w2", w2)):
            t_meas = threshold(spec.rule, w, d, spec.loss).t
            f_meas = objective(spec, w, d)
            t_exp, f_exp = expected[token][point_name]
            rows.append(
                {
                    "method": token,
                    "point": point_name,
                    "t": t_meas,
                    "t_expected": t_exp,
                    "f": f_meas,
                    "f_expected": f_exp,
                }
            )
    return rows


_MANIFEST_KEYS = (
    "datasets", "methods", "grid", "train", "split", "select", "criteria_taus", "loss"
)
# dataset format: the keys an entry of that format takes besides name and format
_DATASET_KEYS = {
    "synth": ("n", "seed"),
    "csv": ("path", "label", "pos"),
    "libsvm": ("path",),
}


class ManifestError(ValueError):
    """A manifest key the runner does not read, or a required one left out."""


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ManifestError(
            f"unknown manifest key {unknown[0]!r} in {where}; "
            f"expected one of {sorted(allowed)}"
        )


def _check_manifest(manifest: dict) -> None:
    _check_keys(manifest, _MANIFEST_KEYS, "the manifest")
    train = manifest.get("train", {})
    # sections that load with cls(**doc) take exactly the dataclass fields
    for where, doc, cls in (
        ("grid", manifest.get("grid", {}), Grid),
        ("train", train, TrainConfig),
        ("train.adam", train.get("adam", {}), AdamParams),
        ("split", manifest.get("split", {}), SplitSpec),
    ):
        _check_keys(doc, [f.name for f in dataclasses.fields(cls)], where)
    _check_keys(manifest["select"], ("criterion", "tau"), "select")
    for i, entry in enumerate(manifest["datasets"]):
        fmt = entry.get("format", "csv")
        if fmt not in _DATASET_KEYS:
            raise ManifestError(f"unknown dataset format {fmt!r} in datasets[{i}]")
        _check_keys(entry, ("name", "format", *_DATASET_KEYS[fmt]), f"datasets[{i}]")
    for i, entry in enumerate(manifest["methods"]):
        # k and beta are swept by the grid; tau fixes the method instance
        takes_tau = "tau" in method_params(entry["method"])
        _check_keys(entry, ("method", "tau") if takes_tau else ("method",), f"methods[{i}]")
        if takes_tau and "tau" not in entry:
            raise ManifestError(f"methods[{i}]: {entry['method']} requires tau")


def _load_manifest_dataset(entry: dict) -> Dataset:
    kind = entry.get("format", "csv")
    if kind == "synth":
        return synth_example(entry["n"], entry.get("seed", 0))
    if kind == "csv":
        return data_mod.load_csv(entry["path"], entry["label"], entry["pos"])
    return data_mod.load_libsvm(entry["path"])


def run_manifest(manifest: dict, out_dir, jobs: int = 1) -> dict:
    """Execute a JSON experiment manifest and write its artifact files.

    The manifest lists datasets, method instances, grid overrides, the train
    configuration, split fractions and the selection criterion.  A key the
    runner does not read raises :class:`ManifestError` before any work
    starts.  Outputs in ``out_dir``: run_records.json, rank_table.csv,
    zero_audit.csv and timing.csv.
    """
    _check_manifest(manifest)
    grid = Grid(**manifest.get("grid", {}))
    cfg = TrainConfig(**manifest.get("train", {}))
    spec_split = SplitSpec(**manifest.get("split", {}))
    select_doc = manifest["select"]
    criteria_taus = manifest.get("criteria_taus", [0.01, 0.03])
    try:
        select = SelectCriterion(kind=select_doc.get("criterion"), tau=select_doc.get("tau"))
        for tau in criteria_taus:
            check_taus([tau])
    except ValueError as exc:
        raise ManifestError(f"invalid selection criterion or criteria_taus: {exc}") from None
    loss = make_loss(manifest.get("loss", "hinge"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    winners: list[RunRecord] = []
    all_records: list[RunRecord] = []
    timing_rows: list[dict] = []
    for ds_entry in manifest["datasets"]:
        name = ds_entry["name"]
        splits = split(_load_manifest_dataset(ds_entry), spec_split)
        for m_entry in manifest["methods"]:
            best, records = grid_search(
                m_entry["method"],
                grid,
                splits,
                cfg,
                select,
                tau=m_entry.get("tau"),
                loss=loss,
                dataset_name=name,
                criteria_taus=criteria_taus,
                jobs=jobs,
            )
            winners.append(best)
            all_records.extend(records)
            timing_rows.append(
                {
                    "method": best.method,
                    "dataset": name,
                    "ms_per_iter": best.ms_per_iter,
                }
            )

    (out / "run_records.json").write_text(
        json.dumps([r.to_dict() for r in all_records], indent=2)
    )
    criteria_keys = sorted(winners[0].criteria["test"]) if winners else []
    ranks = rank_table(winners, criteria_keys)
    _write_rank_csv(ranks, out / "rank_table.csv")
    _write_rows_csv(
        zero_audit(all_records),
        out / "zero_audit.csv",
        ["method", "dataset", "outcome", "n_success", "n_points"],
    )
    _write_rows_csv(timing_rows, out / "timing.csv", ["method", "dataset", "ms_per_iter"])
    return {
        "winners": winners,
        "records": all_records,
        "rank_table": ranks,
    }


def _write_rank_csv(ranks: dict[str, dict[str, float]], path: Path) -> None:
    criteria = list(ranks)
    methods = sorted({m for col in ranks.values() for m in col})
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + criteria)
        for m in methods:
            writer.writerow([m] + [f"{ranks[c][m]:.2f}" for c in criteria])


def _write_rows_csv(rows: list[dict], path: Path, columns: list[str]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
