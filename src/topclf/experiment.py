"""Grid search, aggregation tables and the synthetic worked example.

The hyperparameter grid defaults to

    beta   in {1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
    lambda in {0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
    k      in {1, 3, 5, 10, 15, 20}

with lambda pinned to 1e-3 for the methods that already sweep k or beta, so
every method searches six points.  The points of one (dataset, method) cell
train in lockstep, one task per cell.  Selection maximizes a fraction-of-
positives criterion on the validation split; test-split values are what the
rank tables aggregate.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DATASET_ENTRIES, Dataset, SplitSpec, load_dataset, split
from .data import synth_example, write_csv, write_json
from .evaluation import check_criterion, check_taus, criteria_table
from .objective import ObjectiveSpec, SpecStack, evaluate, objective
from .solver import TrainConfig, train
from .surrogate import make_loss
from .threshold import RULES, check_pool, method_params, rule_from_token, scores

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
        if self.kind == "positives_at_top" and self.tau is not None:
            raise ValueError("select.tau must be unset: positives_at_top takes no tau")


@dataclass
class RunRecord:
    """One grid point's row of run_records.json, in its key order.

    ``ms_per_iter`` is the median of the point's share of each lockstep
    iteration of its cell: the iteration's wall time over the cell's points.
    """

    method: str
    dataset: str
    params: dict
    seed: int
    criteria: dict
    f_final: float
    f_zero: float
    ms_per_iter: float
    w: list[float]
    t_final: float


def method_id(spec: ObjectiveSpec) -> str:
    """Readable method-instance label, one per (kind, tau) pair."""
    token, tau = RULES[spec.rule.kind][0], spec.rule.tau
    return token if tau is None else f"{token}(tau={tau:g})"


def grid_points(method: str, grid: Grid) -> list[dict]:
    """Hyperparameter dictionaries swept for ``method``; an empty sweep raises."""
    params = method_params(method)
    if "k" in params:
        points = [{"k": k, "lambda": FIXED_LAMBDA} for k in grid.ks]
    elif "beta" in params:
        points = [{"beta": beta, "lambda": FIXED_LAMBDA} for beta in grid.betas]
    else:
        points = [{"lambda": lam} for lam in grid.lambdas]
    if not points:
        raise ValueError(f"empty hyperparameter grid for {method}")
    return points


# the run's splits by dataset name, train config and criteria taus, set by _hold_run
_RUN: dict = {}


def _hold_run(splits: dict, cfg: TrainConfig, taus: list[float]) -> None:
    """Pool initializer, also called in-process when ``jobs`` is 1: keep the run's constants."""
    _RUN.update(splits=splits, cfg=cfg, taus=taus)


def _run_cell(task) -> list[RunRecord]:
    """Train one (dataset, method) cell's grid points in lockstep; their records in grid order."""
    dataset_name, specs, points = task
    cfg, taus = _RUN["cfg"], _RUN["taus"]
    splits = dict(zip(("train", "valid", "test"), _RUN["splits"][dataset_name]))
    d = splits["train"]
    try:
        models = train(specs, d, cfg)
    except (ValueError, FloatingPointError):
        # a lockstep error does not say which row raised it; each point run
        # on its own gives the same bits, so the first that fails names itself
        for spec, point in zip(specs, points):
            try:
                train(spec, d, cfg)
            except (ValueError, FloatingPointError) as exc:
                where = ", ".join(f"{key}={value:g}" for key, value in point.items())
                raise type(exc)(
                    f"dataset {dataset_name!r}, method {method_id(spec)}, grid point {where}: {exc}"
                ) from None
        raise
    w = np.array([model.w for model in models])
    # one score pass per split scores every point of the cell
    split_scores = {name: scores(w, part) for name, part in splits.items()}
    f_final, f_zero = objective(specs, w, d), objective(specs, np.zeros(w.shape), d)
    return [
        RunRecord(
            method=method_id(spec),
            dataset=dataset_name,
            params=point,
            seed=cfg.seed,
            criteria={
                name: criteria_table(z[g], splits[name], taus) for name, z in split_scores.items()
            },
            f_final=float(f_final[g]),
            f_zero=float(f_zero[g]),
            ms_per_iter=float(np.median(model.history.iter_ms)),
            w=model.w.tolist(),
            t_final=model.t_final,
        )
        for g, (spec, point, model) in enumerate(zip(specs, points, models))
    ]


def grid_search(
    tasks: list[tuple], splits: dict, cfg: TrainConfig, select: SelectCriterion,
    criteria_taus: list[float], jobs: int,
) -> tuple[list[RunRecord], list[RunRecord]]:
    """Train every ``(dataset, specs, points)`` cell in lockstep, scored at ``criteria_taus`` and
    the selection tau; return each cell's validation winner (ties go to its earliest point) and
    every record in task order, from one ``pool.map`` on at most ``jobs`` workers if > 1."""
    taus = list(criteria_taus)
    if select.tau is not None and select.tau not in taus:
        taus.append(select.tau)
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_hold_run, initargs=(splits, cfg, taus)
        ) as pool:
            cells = list(pool.map(_run_cell, tasks))
    else:
        _hold_run(splits, cfg, taus)
        try:
            cells = list(map(_run_cell, tasks))
        finally:
            _RUN.clear()
    key = select.kind if select.kind == "positives_at_top" else f"{select.kind}@{select.tau:g}"
    winners = [max(recs, key=lambda r: r.criteria["valid"][key]) for recs in cells]
    return winners, [rec for recs in cells for rec in recs]


_AUDIT_COLUMNS = ("method", "dataset", "outcome", "n_success", "n_points")


def zero_audit(records: list[RunRecord]) -> list[dict]:
    """Per method and dataset: did training beat the all-zero weights?

    A grid point counts as a success when f(w_final) < f(0) strictly.  The
    outcome column reads "all", "none", or a condition on the swept
    hyperparameter such as "beta <= 0.1": the first key of each record's
    ``params``, where :func:`grid_points` puts it.
    """
    rows = []
    cell = operator.attrgetter("method", "dataset")
    for (method, dataset), group in itertools.groupby(sorted(records, key=cell), key=cell):
        recs = list(group)
        successes = [r for r in recs if r.f_final < r.f_zero]
        if len(successes) == len(recs):
            outcome = "all"
        elif not successes:
            outcome = "none"
        else:
            outcome = _describe_successes(recs, successes)
        row = (method, dataset, outcome, len(successes), len(recs))
        rows.append(dict(zip(_AUDIT_COLUMNS, row)))
    return rows


def _describe_successes(recs: list[RunRecord], successes: list[RunRecord]) -> str:
    name = next(iter(recs[0].params))
    good = sorted(r.params[name] for r in successes)
    all_vals = sorted(r.params[name] for r in recs)
    if len(good) == 1:
        return f"{name} = {good[0]:g}"
    if good == [v for v in all_vals if v <= good[-1]]:
        return f"{name} <= {good[-1]:g}"
    if good == [v for v in all_vals if v >= good[0]]:
        return f"{name} >= {good[0]:g}"
    return f"{name} in {{{', '.join(f'{v:g}' for v in good)}}}"


def rank_table(winners: list[RunRecord], criteria: list[str]) -> dict[str, dict[str, float]]:
    """Average test-split rank of each method across datasets, per criterion column.

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
            missing = [method for method in methods if (method, ds) not in by_cell]
            if missing:
                raise ValueError(f"missing cell: method {missing[0]!r} on {ds!r}")
            v = np.array([by_cell[method, ds].criteria["test"][crit] for method in methods])
            # 1 + the count of larger values + half the count of other equal values
            ranks += 1 + (v > v[:, None]).sum(axis=1) + ((v == v[:, None]).sum(axis=1) - 1) / 2
        table[crit] = {m: ranks[i] / len(datasets) for i, m in enumerate(methods)}
    return table


def reproduce_worked_example(
    n: int = 100_000,
    tau: float = 0.05,
    beta: float = 0.01,
    k: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Thresholds and objectives of the two landmark weight vectors.

    On the planted outlier dataset the all-zero weights w1=(0,0) and the
    perfect separator w2=(1,0) have closed-form thresholds and objectives
    for each method; the table pairs the measured sample values with those
    limits.  The closed form for patmat's w2 assumes beta <= tau.
    """
    if n < 1000:
        raise ValueError("n must be at least 1000 for the limits to be meaningful")
    # each rule checks its parameters, and its score pool in a stand-in with the
    # planted set's 2n + 1 rows (n + 1 negative), before any data is made
    stand_in = Dataset(np.zeros((2 * n + 1, 0)), np.arange(2 * n + 1) < n)
    specs = {}
    for token in ("toppush", "toppushk", "grill", "patmat", "topmean"):
        specs[token] = ObjectiveSpec(rule=rule_from_token(token, k=k, tau=tau, beta=beta))
        check_pool(specs[token].rule, stand_in)
    d = synth_example(n, seed)
    w1 = np.zeros(2)
    w2 = np.array([1.0, 0.0])
    t0 = (1.0 - tau) / beta
    expected = {
        "toppush": {"w1": (0.0, 1.0), "w2": (2.0, 2.5)},
        "toppushk": {"w1": (0.0, 1.0), "w2": (2.0 / k, 0.5 + 2.0 / k)},
        "grill": {"w1": (0.0, 2.0), "w2": (1.0 - 2.0 * tau, 1.5 - 2.0 * tau * (1.0 - tau))},
        "patmat": {"w1": (t0, 1.0 + t0), "w2": (t0, 0.5 + t0)},
        "topmean": {"w1": (0.0, 1.0), "w2": (1.0 - tau, 1.5 - tau)},
    }
    rows = []
    for token, spec in specs.items():
        for point_name, w in (("w1", w1), ("w2", w2)):
            f_meas, _, tres = evaluate([spec], w[None], d)
            t_exp, f_exp = expected[token][point_name]
            rows.append({
                "method": token, "point": point_name, "t": float(tres.t[0]), "t_expected": t_exp,
                "f": float(f_meas[0]), "f_expected": f_exp,
            })
    return rows


# the manifest's JSON layout, as _check reads it
_MANIFEST = {
    "datasets": list[dict], "methods": list[dict],
    "select": {"criterion": str, "tau": float | None},
    "grid": Grid, "train": TrainConfig, "split": SplitSpec,
    "criteria_taus": list[float], "loss": str,
}
# JSON type and json.loads types of each plain layout; a JSON boolean loads as
# a bool, which subclasses int, yet is neither a number nor an integer
_JSON_KINDS = {
    dict: ("object", (dict,)), list: ("array", (list,)), tuple: ("array", (list,)),
    str: ("string", (str,)), float: ("number", (int, float)), int: ("integer", (int,)),
    bool: ("boolean", (bool,)),
}
# the layout of a dataclass: the type hint of each field, resolved once
_field_types = functools.cache(typing.get_type_hints)


class ManifestError(ValueError):
    """A bad manifest entry, a split part lacking a class, an infeasible grid point or jobs < 1."""


def _check(value, layout, where: str = "", required=()) -> None:
    """Raise ManifestError unless ``value`` is JSON laid out as ``layout``.

    A dataclass lays out an object of its fields, a dict an object of those
    keys with ``required`` among them, ``list[T]`` or ``tuple[T, ...]`` an
    array of T, ``X | None`` an X or null, and dict, str, float, int or bool
    that JSON type.  ``where`` names ``value`` in errors; empty is the manifest.
    """
    at = where or "the manifest"
    arms = typing.get_args(layout) if isinstance(layout, types.UnionType) else (layout,)
    nullable = type(None) in arms
    if value is None and nullable:
        return
    layout = _field_types(arms[0]) if dataclasses.is_dataclass(arms[0]) else arms[0]
    kind = dict if isinstance(layout, dict) else typing.get_origin(layout) or layout
    name, py_types = _JSON_KINDS[kind]
    if not isinstance(value, py_types) or (isinstance(value, bool) and bool not in py_types):
        raise ManifestError(f"{at} must be a JSON {name}{' or null' if nullable else ''}")
    if isinstance(layout, dict):
        missing = [key for key in required if key not in value]
        if missing:
            raise ManifestError(f"missing manifest key {missing[0]!r} in {at}")
        unknown = sorted(set(value) - set(layout))
        if unknown:
            raise ManifestError(
                f"unknown manifest key {unknown[0]!r} in {at}; expected one of {sorted(layout)}"
            )
        for key, item in value.items():
            _check(item, layout[key], f"{where}.{key}" if where else key)
    elif typing.get_origin(layout) in (list, tuple):
        for j, item in enumerate(value):
            _check(item, typing.get_args(layout)[0], f"{where}[{j}]")


def _check_manifest(manifest: dict) -> None:
    _check(manifest, _MANIFEST, required=("datasets", "methods", "select"))
    for key in ("datasets", "methods"):
        if not manifest[key]:
            raise ManifestError(f"manifest key {key!r} must list at least one entry")
    for i, entry in enumerate(manifest["datasets"]):
        fmt = entry.get("format", "csv")
        if not isinstance(fmt, str) or fmt not in DATASET_ENTRIES:
            raise ManifestError(f"unknown dataset format {fmt!r} in datasets[{i}]")
        layout, required = DATASET_ENTRIES[fmt]
        _check(entry, layout, f"datasets[{i}]", required)
        if entry["name"] in [prev["name"] for prev in manifest["datasets"][:i]]:
            raise ManifestError(f"datasets[{i}]: dataset name {entry['name']!r} is taken")
    for i, entry in enumerate(manifest["methods"]):
        _check(entry.get("method", ""), str, f"methods[{i}].method")
        try:
            params = method_params(entry["method"]) if "method" in entry else ()
        except ValueError as exc:
            raise ManifestError(f"methods[{i}]: {exc}") from None
        # k and beta are swept by the grid; tau fixes the method instance
        layout = {"method": str, "tau": float} if "tau" in params else {"method": str}
        _check(entry, layout, f"methods[{i}]", ("method",))
        if "tau" in layout and "tau" not in entry:
            raise ManifestError(f"methods[{i}]: {entry['method']} requires tau")


def run_manifest(manifest: dict, out_dir, jobs: int = 1) -> dict:
    """Execute a JSON experiment manifest and write its artifact files.

    The manifest lists datasets, method instances, grid overrides, the train
    configuration, split fractions and the selection criterion.  An unknown
    or missing key or a bad value, a grid point's included, raises
    :class:`ManifestError` before any data is loaded, and a split part that is
    empty or lacks a class or a grid point some training split cannot support
    before any training.  Every (dataset, method) cell, its grid points trained
    in lockstep, is one task, all run by one :func:`grid_search` call (on a
    pool of at most ``min(jobs, cells)`` workers when ``jobs`` > 1).
    Outputs in ``out_dir``: run_records.json, rank_table.csv, zero_audit.csv
    and timing.csv.
    """
    if jobs < 1:
        raise ManifestError(f"jobs must be at least 1, got {jobs}")
    _check_manifest(manifest)
    select_doc = manifest["select"]
    criteria_taus = manifest.get("criteria_taus", [0.01, 0.03])
    try:
        grid = Grid(**manifest.get("grid", {}))
        cfg = TrainConfig(**manifest.get("train", {}))
        spec_split = SplitSpec(**manifest.get("split", {}))
        loss = make_loss(manifest.get("loss", "hinge"))
        select = SelectCriterion(kind=select_doc.get("criterion"), tau=select_doc.get("tau"))
        for tau in criteria_taus:
            check_taus([tau])
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"invalid manifest value: {exc}") from None
    # each method's grid points and their specs, built once and checked before any data loads
    plan, labels = [], []
    for i, m in enumerate(manifest["methods"]):
        try:
            points = grid_points(m["method"], grid)
            specs = []
            for point in points:
                swept = {key: value for key, value in point.items() if key != "lambda"}
                rule = rule_from_token(m["method"], tau=m.get("tau"), **swept)
                specs.append(ObjectiveSpec(rule=rule, loss=loss, lam=point["lambda"]))
        except ValueError as exc:
            raise ManifestError(f"methods[{i}]: {exc}") from None
        label = method_id(specs[0])
        if label in labels:
            raise ManifestError(f"methods[{i}]: method label {label!r} is taken")
        labels.append(label)
        plan.append((specs, points))
    within = f"smallest of {cfg.n_minibatch} minibatches" if cfg.n_minibatch > 1 else "whole"
    splits, tasks = {}, []
    for entry in manifest["datasets"]:
        name = entry["name"]
        try:
            d = load_dataset(entry)
        except ValueError as exc:
            raise ValueError(f"dataset {name!r}: {exc}") from None
        try:
            splits[name] = parts = split(d, spec_split)
            for part, p in zip(("train", "validation", "test"), parts):
                for kind, count in (("positive", p.n_pos), ("negative", p.n_neg)):
                    if not count:
                        raise ValueError(f"the {part} part has no {kind} samples")
        except ValueError as exc:
            raise ManifestError(f"dataset {name!r}: {exc}") from None
        for specs, points in plan:
            try:
                # the stack check that train makes before its first step
                SpecStack(specs, parts[0], cfg.n_minibatch)
            except ValueError as exc:
                where = f"dataset {name!r}, method {method_id(specs[0])}, training split ({within})"
                raise ManifestError(f"{where}: {exc}") from None
            tasks.append((name, specs, points))
    winners, all_records = grid_search(tasks, splits, cfg, select, criteria_taus, jobs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_json(out / "run_records.json", [vars(r) for r in all_records])
    ranks = rank_table(winners, sorted(winners[0].criteria["test"]))
    methods = sorted({r.method for r in winners})
    rank_rows = [[m, *(f"{ranks[c][m]:.2f}" for c in ranks)] for m in methods]
    write_csv(out / "rank_table.csv", ["method", *ranks], rank_rows)
    audit_rows = [row.values() for row in zero_audit(all_records)]
    write_csv(out / "zero_audit.csv", _AUDIT_COLUMNS, audit_rows)
    timing_rows = [(r.method, r.dataset, r.ms_per_iter) for r in winners]
    write_csv(out / "timing.csv", ["method", "dataset", "ms_per_iter"], timing_rows)
    return {"winners": winners, "records": all_records, "rank_table": ranks}
