"""Surrogate training objective and its chain-rule gradient.

The objective is the mean surrogate false-negative count above the rule's
threshold, plus optional l2 regularization:

    f(w) = (1/n+) sum_{x in positives} l(t(w) - w.x) + (lambda/2) ||w||^2

The two exact-quantile rules additionally add the mean surrogate
false-positive count (1/n-) sum_{x in negatives} l(w.x - t(w)), which is
what keeps them away from the all-zero minimizer at the price of convexity.

The gradient differentiates through the threshold:

    grad f(w) = (1/n+) sum l'(t(w) - w.x) (grad t(w) - x) + lambda w

Since grad t(w) = sum_i a_i x_i with the coefficients a_i returned by the
threshold rule, the whole gradient is one weighted sum of feature rows,
c @ X: each positive carries -l'(t - w.x)/n+, each negative l'(w.x - t)/n-
when the false-positive term is on, and each threshold support sample adds
s * a_i, where s is the net sum of those derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .surrogate import SurrogateLoss, HINGE
from .threshold import (
    QUANTILE_KINDS,
    ThresholdResult,
    ThresholdRule,
    scores,
    threshold_scored,
)

__all__ = ["ObjectiveSpec", "objective", "evaluate"]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Threshold rule, surrogate loss and regularization weight."""

    rule: ThresholdRule
    loss: SurrogateLoss = HINGE
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")

    @property
    def include_fp(self) -> bool:
        """Exactly the exact-quantile rules carry the false-positive term."""
        return self.rule.kind in QUANTILE_KINDS


def evaluate(
    spec: ObjectiveSpec, w: np.ndarray, d: Dataset
) -> tuple[float, np.ndarray, ThresholdResult]:
    """Objective value and gradient in one pass, sharing the score buffer."""
    d.require_both_classes()
    w = np.asarray(w, dtype=np.float64)
    z = scores(w, d)
    tres = threshold_scored(spec.rule, z, d, spec.loss)
    up = tres.t - z[d.pos_idx]

    lup, dup = spec.loss.value_and_deriv(up)
    # sum / n has the same bits as mean() and skips its overhead
    value = float(lup.sum() / d.n_pos)
    # free each loss-value array once summed, before the gradient buffers
    del lup
    # per-sample coefficients c of the gradient c @ X
    c = np.zeros(d.n)
    c[d.pos_idx] = dup / -d.n_pos
    s = dup.sum() / d.n_pos

    if spec.include_fp:
        un = z[d.neg_idx] - tres.t
        lun, dun = spec.loss.value_and_deriv(un)
        value += float(lun.sum() / d.n_neg)
        del lun
        c[d.neg_idx] = dun / d.n_neg
        s -= dun.sum() / d.n_neg

    # support indices are distinct, so the scatter-add is exact
    c[tres.support] += s * tres.weights
    grad = c @ d.features
    if spec.lam:
        value += 0.5 * spec.lam * float(w @ w)
        grad = grad + spec.lam * w
    return value, grad, tres


def objective(spec: ObjectiveSpec, w: np.ndarray, d: Dataset) -> float:
    """f(w) on dataset ``d`` (full data or a minibatch)."""
    value, _, _ = evaluate(spec, w, d)
    return value
