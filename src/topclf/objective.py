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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_minibatches
from .surrogate import SurrogateLoss, HINGE
from .threshold import (
    QUANTILE_KINDS,
    RuleStack,
    ThresholdResult,
    ThresholdRule,
    scores,
    threshold_scored,
)

__all__ = ["ObjectiveSpec", "SpecStack", "objective", "evaluate"]


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


class SpecStack(tuple):
    """Specs of one loss and a :class:`RuleStack` of their rules, checked once for ``d`` and its
    ``parts`` minibatches, with their lambdas; :func:`evaluate` checks any other stack."""

    def __new__(cls, specs: Sequence[ObjectiveSpec], d: Dataset, parts: int = 1):
        d.require_both_classes()
        check_minibatches(d, parts)
        stack = super().__new__(cls, specs)
        if len({sg.loss.kind for sg in stack}) > 1:
            raise ValueError("a weight stack takes specs of one loss")
        stack.rules = RuleStack([sg.rule for sg in stack], d, parts)
        # a row with lambda 0 skips its term: adding 0 * w can turn -0.0 into 0.0
        stack.lams = [(g, sg.lam) for g, sg in enumerate(stack) if sg.lam]
        stack.lam = np.array([[sg.lam] for sg in stack])
        return stack


def evaluate(
    specs: Sequence[ObjectiveSpec], w: np.ndarray, d: Dataset
) -> tuple[np.ndarray, np.ndarray, ThresholdResult]:
    """Objective values and gradients of a (G, m) weight stack in one pass.

    Row g is evaluated under ``specs[g]``; the specs share their loss and their rule's kind
    and tau (see :func:`threshold_scored`).  Gives the G values, the (G, m) gradients and
    the stack's threshold result, each row with the bits of a one-row stack of it.
    """
    if type(specs) is not SpecStack:
        specs = SpecStack(specs, d)
    w = np.asarray(w, dtype=np.float64)
    if w.shape[:-1] != (len(specs),):
        raise ValueError(f"weight shape {w.shape} does not match {len(specs)} specs")
    loss = specs[0].loss
    # every step below acts on each C-ordered row as a one-row stack would
    Z = scores(w, d)
    tres = threshold_scored(specs.rules, Z, d, loss)
    up = tres.t[:, None] - Z.take(d.pos_idx, axis=1)

    lup, dup = loss.value_and_deriv(up)
    # add.reduce / n has the same bits as mean() and skips its overhead
    value = np.add.reduce(lup, axis=1) / d.n_pos
    # free each loss-value array once summed, before the gradient buffers
    del lup
    # per-sample coefficients c of the gradient c @ X, filled row by row: a
    # 1-D index assignment is the fastest for one row and for many
    c = np.zeros(Z.shape)
    for cg, pos in zip(c, dup / -d.n_pos):
        cg[d.pos_idx] = pos
    s = np.add.reduce(dup, axis=1) / d.n_pos

    if specs[0].include_fp:
        un = Z.take(d.neg_idx, axis=1) - tres.t[:, None]
        lun, dun = loss.value_and_deriv(un)
        value += np.add.reduce(lun, axis=1) / d.n_neg
        del lun
        for cg, neg in zip(c, dun / d.n_neg):
            cg[d.neg_idx] = neg
        s -= np.add.reduce(dun, axis=1) / d.n_neg

    # distinct support indices make the scatter-add exact; G of them are one per row, in order
    scale = s if tres.support.size == len(s) else s[tres.support // d.n]
    c.reshape(-1)[tres.support] += scale * tres.weights
    grad = np.empty(w.shape)
    # ndarray.dot: matmul's BLAS gemv and ddot, with their bits at n >= 2 (see scores)
    for cg, row in zip(c, grad):
        cg.dot(d.features, out=row)
    for g, lam in specs.lams:
        value[g] += 0.5 * lam * w[g].dot(w[g])
    np.add(grad, specs.lam * w, out=grad, where=specs.lam != 0.0)
    return value, grad, tres


def objective(specs: Sequence[ObjectiveSpec], w: np.ndarray, d: Dataset) -> np.ndarray:
    """f(w) of each row of a (G, m) weight stack on ``d`` (full data or a minibatch)."""
    value, _, _ = evaluate(specs, w, d)
    return value
