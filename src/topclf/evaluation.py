"""Exact confusion counts, precision/recall, curves and ranking criteria.

A sample is predicted positive iff its score is >= the threshold; ties sit
on the positive side by convention, and their count is tracked in ``q``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .threshold import exact_quantile, scores

__all__ = [
    "Counts",
    "EvalReport",
    "counts",
    "precision_recall",
    "ptau_curve",
    "pr_curve",
    "criterion",
    "criteria_table",
    "build_report",
    "write_curve_csv",
]

CRITERION_KINDS = ("positives_at_top", "positives_at_quantile", "positives_at_np")


@dataclass(frozen=True)
class Counts:
    """Integer confusion counts; ``q`` is the number of scores exactly at t."""

    tp: int
    fn: int
    tn: int
    fp: int
    q: int


@dataclass(frozen=True)
class EvalReport:
    counts: Counts
    threshold: float
    precision: float
    recall: float
    pr_curve: list[tuple[float, float]]
    ptau_curve: list[tuple[float, float]]
    criteria: dict[str, float]

    def to_dict(self) -> dict:
        # shallow on purpose: a deep asdict copies every curve point
        return {**vars(self), "counts": asdict(self.counts)}

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


def counts(w: np.ndarray, t: float, d: Dataset) -> Counts:
    """Exact 0-1 confusion counts of the classifier sign(w.x - t)."""
    z = scores(w, d)
    zp, zn = z[d.pos_idx], z[d.neg_idx]
    tp = int(np.count_nonzero(zp >= t))
    fp = int(np.count_nonzero(zn >= t))
    return Counts(
        tp=tp,
        fn=d.n_pos - tp,
        tn=d.n_neg - fp,
        fp=fp,
        q=int(np.count_nonzero(z == t)),
    )


def precision_recall(c: Counts) -> tuple[float, float]:
    """(precision, recall); both default to 1 in the vacuous 0/0 case."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 1.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 1.0
    return precision, recall


def check_taus(taus) -> list[float]:
    """``taus`` as a list, after checking each lies in (0, 1] and they increase."""
    taus = list(taus)
    if any(not 0.0 < t <= 1.0 for t in taus):
        raise ValueError(f"taus must lie in (0, 1], got {taus}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"taus must be strictly increasing, got {taus}")
    return taus


def check_criterion(kind: str, tau: float | None) -> None:
    """Reject an unknown criterion, a missing tau where it needs one, a bad tau."""
    if kind not in CRITERION_KINDS:
        raise ValueError(f"unknown criterion {kind!r}; choose from {CRITERION_KINDS}")
    if tau is not None:
        check_taus([tau])
    elif kind != "positives_at_top":
        raise ValueError(f"{kind} requires tau")


def ptau_curve(
    w: np.ndarray, d: Dataset, taus
) -> list[tuple[float, float]]:
    """Precision at the top tau-quantile threshold, per requested tau."""
    taus = check_taus(taus)
    z = scores(w, d)
    points = []
    for tau in taus:
        t = exact_quantile(z, tau)
        precision, _ = precision_recall(counts(w, t, d))
        points.append((tau, precision))
    return points


def pr_curve(w: np.ndarray, d: Dataset) -> list[tuple[float, float]]:
    """(recall, precision) sweep over all distinct score thresholds.

    Thresholds run from the highest score downward; among points with equal
    recall only the best precision is kept, so recalls come out strictly
    increasing.  One descending sort gives the counts at every threshold:
    predicted positives at a score are all samples up to the last of its ties.
    """
    z = scores(w, d)
    order = np.argsort(-z, kind="stable")
    z = z[order]
    last = np.flatnonzero(np.append(z[1:] != z[:-1], True))
    tp = np.cumsum(d.labels[order])[last]
    # equal recall means equal tp with more predicted positives, so the first
    # point of each recall has the best precision
    first = np.append(True, tp[1:] != tp[:-1])
    tp, predicted = tp[first], last[first] + 1
    recall = tp / d.n_pos if d.n_pos else np.ones(tp.size)
    return list(zip(recall.tolist(), (tp / predicted).tolist()))


def criterion(
    kind: str, w: np.ndarray, d: Dataset, tau: float | None = None
) -> float:
    """Fraction of positives scoring at or above the criterion's threshold.

    ``positives_at_top`` uses the largest negative score,
    ``positives_at_quantile`` the top tau-quantile of all scores and
    ``positives_at_np`` the top tau-quantile of the negative scores.
    """
    check_criterion(kind, tau)
    if d.n_pos == 0:
        raise ValueError("criterion undefined without positive samples")
    z = scores(w, d)
    if kind == "positives_at_top":
        if d.n_neg == 0:
            raise ValueError("positives_at_top undefined without negative samples")
        t = float(z[d.neg_idx].max())
    else:
        pool = z if kind == "positives_at_quantile" else z[d.neg_idx]
        if pool.size == 0:
            raise ValueError(f"{kind} undefined without negative samples")
        t = exact_quantile(pool, tau)
    return int(np.count_nonzero(z[d.pos_idx] >= t)) / d.n_pos


def criteria_table(w: np.ndarray, d: Dataset, taus) -> dict[str, float]:
    """Every criterion of ``w`` on ``d``: top, then both quantiles per tau."""
    crits = {"positives_at_top": criterion("positives_at_top", w, d)}
    for tau in taus:
        crits[f"positives_at_quantile@{tau:g}"] = criterion(
            "positives_at_quantile", w, d, tau
        )
        crits[f"positives_at_np@{tau:g}"] = criterion("positives_at_np", w, d, tau)
    return crits


def build_report(
    w: np.ndarray, t: float, d: Dataset, taus
) -> EvalReport:
    """Full evaluation of weights ``w`` at decision threshold ``t``."""
    c = counts(w, t, d)
    precision, recall = precision_recall(c)
    crits = criteria_table(w, d, taus)
    return EvalReport(
        counts=c,
        threshold=t,
        precision=precision,
        recall=recall,
        pr_curve=pr_curve(w, d),
        ptau_curve=ptau_curve(w, d, sorted(taus)),
        criteria=crits,
    )


def write_curve_csv(points, path, columns: tuple[str, str]) -> None:
    """Write a two-column curve as CSV with a header row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for x, y in points:
            writer.writerow([repr(float(x)), repr(float(y))])
