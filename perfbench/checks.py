"""Output checks made apart from the program.

Each check recomputes what the program reports from the definitions in the
topclf README with plain numpy (one sort and cumulative counts where a
curve is involved), or tests a property the method must have.  A check
raises :class:`CheckError` naming the first disagreement.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

NEGATIVE_KINDS = {"top_push", "top_push_k", "quantile_np", "surrogate_quantile_np", "top_mean_np"}
PROJECTED_KINDS = {"quantile", "quantile_np"}  # projection is on by default exactly here
TOL = 1e-9


class CheckError(AssertionError):
    pass


def _close(what: str, got: float, want: float, tol: float = TOL) -> None:
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckError(f"{what}: program gave {got!r}, reference {want!r}")


def _loss(kind: str, u: np.ndarray) -> np.ndarray:
    hinge = np.maximum(0.0, 1.0 + u)
    return hinge if kind == "hinge" else hinge * hinge


def reference_threshold(kind, z, labels, loss="hinge", k=None, tau=None, beta=None) -> float:
    """A rule's threshold from its definition, by sorting or bisection."""
    pool = z[~labels] if kind in NEGATIVE_KINDS else z
    top = np.sort(pool)[::-1]
    if kind == "top_push":
        return float(top[0])
    if kind == "top_push_k":
        return float(top[:k].mean())
    if kind in ("quantile", "quantile_np"):
        return float(top[math.ceil(tau * pool.size) - 1])
    if kind in ("top_mean", "top_mean_np"):
        return float(top[: math.ceil(tau * pool.size)].mean())
    # mean l(beta (z - t)) = tau; the left side falls as t grows
    lo, hi = float(top[-1]) - 1.0 / beta - 1.0, float(top[0]) + 1.0 / beta
    while np.mean(_loss(loss, beta * (pool - lo))) < tau:
        lo -= hi - lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if np.mean(_loss(loss, beta * (pool - mid))) > tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_train(model, kind, loss, k, tau, beta, features, labels, iterations, ref_w=None) -> None:
    """t_final from the definition, finite history, projection, repeatability."""
    w = np.asarray(model.w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise CheckError(f"{kind}: non-finite weights")
    hist = np.asarray(model.history.objective)
    if hist.shape != (iterations,) or not np.all(np.isfinite(hist)):
        raise CheckError(f"{kind}: objective history is not {iterations} finite values")
    if kind in PROJECTED_KINDS and float(np.linalg.norm(w)) > 1.0 + 1e-12:
        raise CheckError(f"{kind}: ||w|| = {np.linalg.norm(w)!r} exceeds 1 under projection")
    want = reference_threshold(kind, features @ w, labels, loss, k, tau, beta)
    _close(f"{kind}: t_final", float(model.t_final), want)
    if ref_w is not None and w.tobytes() != np.asarray(ref_w, dtype=np.float64).tobytes():
        raise CheckError(f"{kind}: repeating the same seed changed w")


# --- eval-cli --------------------------------------------------------------


def criteria(z, labels, taus) -> dict[str, float]:
    """Share of positives at or above each criterion's threshold."""
    top, neg = np.sort(z)[::-1], np.sort(z[~labels])[::-1]
    zp = z[labels]

    def frac_pos(thr):
        return int(np.count_nonzero(zp >= thr)) / zp.size

    out = {"positives_at_top": frac_pos(neg[0])}
    for tau in taus:
        out[f"positives_at_quantile@{tau:g}"] = frac_pos(top[math.ceil(tau * top.size) - 1])
        out[f"positives_at_np@{tau:g}"] = frac_pos(neg[math.ceil(tau * neg.size) - 1])
    return out


def eval_reference(features, labels, w, t, taus) -> dict:
    """Curves, counts and criteria from one descending sort of the scores."""
    z = features @ w
    n, n_pos = z.size, int(labels.sum())
    order = np.argsort(-z, kind="stable")
    zs, ys = z[order], labels[order]
    tp = np.cumsum(ys)

    def kept(thr):  # number of samples with score >= thr
        return int(np.searchsorted(-zs, -thr, side="right"))

    def prec(c):
        return tp[c - 1] / c if c else 1.0

    # tp/fp at every distinct-score boundary, best precision per recall
    last = np.flatnonzero(np.r_[zs[1:] != zs[:-1], True])
    best: dict[float, float] = {}
    for c in last + 1:
        r, p = tp[c - 1] / n_pos, tp[c - 1] / c
        if p > best.get(r, -1.0):
            best[r] = p
    c_t = kept(t)
    tp_t = int(tp[c_t - 1]) if c_t else 0
    return {
        "counts": {
            "tp": tp_t,
            "fn": n_pos - tp_t,
            "tn": (n - n_pos) - (c_t - tp_t),
            "fp": c_t - tp_t,
            "q": int(np.count_nonzero(z == t)),
        },
        "precision": prec(c_t),
        "recall": tp_t / n_pos,
        "pr_curve": sorted(best.items()),
        "ptau_curve": [(tau, prec(kept(zs[math.ceil(tau * n) - 1]))) for tau in taus],
        "criteria": criteria(z, labels, taus),
    }


def _read_curve(path: Path, columns) -> list[tuple[float, float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != tuple(columns):
        raise CheckError(f"{path.name}: header {rows[0]} is not {list(columns)}")
    return [(float(a), float(b)) for a, b in rows[1:]]


def _compare_curve(what, got, want) -> None:
    if len(got) != len(want):
        raise CheckError(f"{what}: {len(got)} points, reference has {len(want)}")
    for i, ((gx, gy), (wx, wy)) in enumerate(zip(got, want)):
        _close(f"{what}[{i}].x", gx, wx)
        _close(f"{what}[{i}].y", gy, wy)


def check_eval(out_dir: Path, ref: dict) -> None:
    """Read back the three files `topclf eval` wrote and compare them to ``ref``."""
    out_dir = Path(out_dir)
    _compare_curve("pr_curve.csv", _read_curve(out_dir / "pr_curve.csv", ("recall", "precision")), ref["pr_curve"])
    _compare_curve("ptau_curve.csv", _read_curve(out_dir / "ptau_curve.csv", ("tau", "precision")), ref["ptau_curve"])
    report = json.loads((out_dir / "report.json").read_text())
    if report["counts"] != ref["counts"]:
        raise CheckError(f"report counts {report['counts']} != reference {ref['counts']}")
    _close("report precision", report["precision"], ref["precision"])
    _close("report recall", report["recall"], ref["recall"])
    _compare_curve("report pr_curve", [tuple(p) for p in report["pr_curve"]], ref["pr_curve"])
    _compare_curve("report ptau_curve", [tuple(p) for p in report["ptau_curve"]], ref["ptau_curve"])
    if set(report["criteria"]) != set(ref["criteria"]):
        raise CheckError(f"report criteria keys {sorted(report['criteria'])}")
    for key, want in ref["criteria"].items():
        _close(f"criterion {key}", report["criteria"][key], want)


# --- grid-manifest ---------------------------------------------------------


def average_ranks(values) -> list[float]:
    """Rank 1 for the largest value; tied values share their mean rank."""
    v = np.asarray(values, dtype=np.float64)
    greater = (v[None, :] > v[:, None]).sum(axis=1)
    equal = (v[None, :] == v[:, None]).sum(axis=1)
    return list(1.0 + greater + (equal - 1) / 2.0)


def check_grid(out_dir: Path, splits: dict, n_methods: int, points: int, taus, select: str) -> None:
    """Records, criteria, rank table and zero audit of one `topclf grid` run.

    ``splits`` maps dataset name to {"train"|"valid"|"test": (features,
    labels)}.  Wall-time fields are not looked at.
    """
    out_dir = Path(out_dir)
    records = json.loads((out_dir / "run_records.json").read_text())
    datasets = sorted(splits)
    if len(records) != len(datasets) * n_methods * points:
        raise CheckError(f"{len(records)} records, expected {len(datasets)} x {n_methods} x {points}")
    groups: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["method"], rec["dataset"]), []).append(rec)
        w = np.asarray(rec["w"], dtype=np.float64)
        if not (math.isfinite(rec["f_final"]) and math.isfinite(rec["f_zero"])):
            raise CheckError(f"{rec['method']} on {rec['dataset']}: non-finite objective")
        for part, (x, y) in splits[rec["dataset"]].items():
            want = criteria(x @ w, y, taus)
            got = rec["criteria"][part]
            if set(got) != set(want):
                raise CheckError(f"criteria keys {sorted(got)} != {sorted(want)}")
            for key, value in want.items():
                _close(f"{rec['method']}/{rec['dataset']}/{part}/{key}", got[key], value)
    methods = sorted({m for m, _ in groups})
    if len(methods) != n_methods or any(len(g) != points for g in groups.values()):
        raise CheckError(f"grid cells are not {n_methods} methods x {points} points")

    # winners: best validation criterion, earliest grid point on ties
    winners = {key: max(recs, key=lambda r: r["criteria"]["valid"][select]) for key, recs in groups.items()}
    with (out_dir / "rank_table.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if [r[0] for r in body] != methods:
        raise CheckError(f"rank table methods {[r[0] for r in body]}")
    full = n_methods * (n_methods + 1) / 2
    for j, crit in enumerate(header[1:], start=1):
        col = [float(r[j]) for r in body]
        if not all(1.0 <= v <= n_methods for v in col):
            raise CheckError(f"rank table {crit}: rank outside [1, {n_methods}]")
        if abs(sum(col) - full) > 0.005 * n_methods + 1e-9:
            raise CheckError(f"rank table {crit}: ranks sum to {sum(col)}, not {full}")
        mean_rank = np.zeros(n_methods)
        for ds in datasets:
            mean_rank += average_ranks([winners[(m, ds)]["criteria"]["test"][crit] for m in methods])
        mean_rank /= len(datasets)
        for m, got, want in zip(methods, col, mean_rank):
            if abs(got - want) > 0.005 + 1e-9:
                raise CheckError(f"rank table {crit}/{m}: {got} != {want:.4f}")

    with (out_dir / "zero_audit.csv").open(newline="", encoding="utf-8") as fh:
        audit = list(csv.DictReader(fh))
    if len(audit) != len(groups):
        raise CheckError(f"zero audit has {len(audit)} rows for {len(groups)} cells")
    for row in audit:
        recs = groups[(row["method"], row["dataset"])]
        wins = sum(r["f_final"] < r["f_zero"] for r in recs)
        if int(row["n_success"]) != wins or int(row["n_points"]) != len(recs):
            raise CheckError(f"zero audit {row['method']}/{row['dataset']}: {row} vs {wins} successes")
        if (wins == len(recs)) != (row["outcome"] == "all") or (wins == 0) != (row["outcome"] == "none"):
            raise CheckError(f"zero audit {row['method']}/{row['dataset']}: outcome {row['outcome']!r}")
